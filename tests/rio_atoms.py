"""The one-step bound evaluated directly on its atoms, as eval_rio_step did
before it became RIO-CHAIN at level 1 on a weighted forest: the reference the
forest form is held to. Each p-th moment is one sum over the joint atoms,
with its own probability, mean and underflow checks."""
import sys

import numpy as np

from martcheck import DomainError, PreconditionError
from martcheck.ineq import BOUNDS, InequalityId, report_table
from martcheck.ptree import PROB_TOL, as_exponent


@np.errstate(over="ignore")
def norm_pow_moment(atoms, p):
    """E||V||^p over (prob, vector) atoms; a sum below the normal float range
    from nonzero norms has lost its terms to underflow: DomainError."""
    norms = [(q, np.linalg.norm(v)) for q, v in atoms]
    total = float(sum(q * r ** p for q, r in norms))
    if total < sys.float_info.min and any(r for _, r in norms):
        raise DomainError(f"p={p:g}: the sides underflow a float (E||.||^p is "
                          f"{total:.3g} from nonzero norms)")
    return total


def rio_step_atoms(x_atoms, y_given_x, p, constant=None):
    """||X+Y||_p^2 <= ||X||_p^2 + c ||Y||_p^2, c = p-1 unless `constant`
    overrides it, over the joint atoms (q_x * q_y|x, x, y)."""
    p = as_exponent(p)
    if len(x_atoms) == 0 or len(x_atoms) != len(y_given_x):
        raise PreconditionError("need one conditional Y distribution per X atom")
    xs = [(float(q), np.asarray(v, dtype=float)) for q, v in x_atoms]
    qx = np.array([q for q, _ in xs])
    if np.any(qx <= 0.0) or abs(qx.sum() - 1.0) > PROB_TOL:
        raise PreconditionError("X atom probabilities must be positive and sum to 1")
    joint = []
    for (q, x), cond in zip(xs, y_given_x):
        cond = [(float(c), np.asarray(y, dtype=float)) for c, y in cond]
        cp = np.array([c for c, _ in cond])
        if len(cond) == 0 or np.any(cp <= 0.0) or abs(cp.sum() - 1.0) > PROB_TOL:
            raise PreconditionError("conditional probabilities must be positive and sum to 1")
        resid = float(np.linalg.norm(sum(c * y for c, y in cond)))
        if resid > PROB_TOL:
            raise PreconditionError(f"conditional mean of Y must vanish; got norm {resid:.3g}")
        joint.extend((q * c, x, y) for c, y in cond)
    x_norm_sq = norm_pow_moment(xs, p) ** (2.0 / p)
    y_norm_sq = norm_pow_moment(((w, y) for w, _, y in joint), p) ** (2.0 / p)
    lhs = norm_pow_moment(((w, x + y) for w, x, y in joint), p) ** (2.0 / p)
    c = BOUNDS[InequalityId.PROP1_MAIN].constant(p) if constant is None else float(constant)
    lhs, rhs, c = np.array([[lhs], [x_norm_sq + c * y_norm_sq], [c]], dtype=float)
    return report_table([InequalityId.RIO_STEP.value], [p], [1.0], lhs, rhs, c)[0]
