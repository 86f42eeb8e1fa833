"""Classical recovery checks for reductions run in the dual-number algebra.

A classical system is lifted to `dual` (every sigma slot zero), reduced
there, and the certificate is projected back by collapsing the sigma
slot.  What the method promises is that the projected certificate is an
exact classical identity whose multipliers are classical initials and
separants.  The remainder itself is strategy-dependent: reducedness in the
dual ring is per sigma-copy, so x1[0,2] and x1[1,2] are separate variables
that both project to x1'', and the two runs can take different steps.
When the projected step trace equals the classical one, the remainders
are equal too.

These helpers live with the tests so that `dstar.classical` stays an
independent oracle.
"""

from dstar.classical import DiffVar, dual_algebra, lift_to_dual, project_to_differential
from dstar.operators import apply_composition
from dstar.ordering import CustomRanking
from dstar.reduction import INITIAL, multiplier_product


def projection_ranking():
    # delta order first, then indeterminate, then sigma order: offender
    # selection on lifted systems mirrors the classical orderly choice
    return CustomRanking(dual_algebra(),
                         lambda v: (v.theta[1], v.var, v.theta[0]))


def projected_trace(dcert):
    """The dual run's steps as classical (DiffVar, case) pairs."""
    return tuple((DiffVar(step.leader.theta[1], step.leader.var), step.case)
                 for step in dcert.steps)


def projected_certificate_holds(g, divisors, dcert, ranking):
    """True when proj(H)*g == proj(r) + sum_k proj(c_k) * a_{m_k}^(theta_k[1]).

    g and divisors are the classical inputs; the derivatives of the
    divisors are taken classically, not projected from the dual ring.
    """
    lifted = [lift_to_dual(a) for a in divisors]
    h = project_to_differential(multiplier_product(dcert, lifted, ranking))
    rhs = project_to_differential(dcert.remainder)
    for cof in dcert.cofactors:
        rhs = rhs + (project_to_differential(cof.c)
                     * divisors[cof.member].nth_derivative(cof.theta[1]))
    return h * g == rhs


def projected_h_factors_hold(divisors, dcert, ranking):
    """True when every multiplier projects to its member's classical
    initial or separant, as its source says."""
    for factor in dcert.h_factors:
        classical = divisors[factor.member]
        lifted = lift_to_dual(classical)
        if factor.source == INITIAL:
            base, expected = lifted.initial(ranking), classical.initial()
        else:
            base, expected = lifted.separant(ranking), classical.separant()
        if project_to_differential(apply_composition(base, factor.theta)) != expected:
            return False
    return True
