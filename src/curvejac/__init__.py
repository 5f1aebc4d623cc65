"""curvejac: exact Jacobian toolkit for rational curves on hypersurfaces.

Builds the incidence equations of parametrized rational curves lying on a
hypersurface, their Jacobian in coefficient and evaluation form, and runs the
block-decomposition verification for the special quintic l*q + z4*p through a
curve on a quartic surface.  The package is what the five commands of `cli`
(fixture, jacobian, verify, through, sample) reach; every name exported here
is one that package code reads.  All core arithmetic is exact over the
rationals, in ints: a rational (a coefficient read, a point, a root) is a
pair (num, den) in lowest terms, den > 0; a form's coefficients, a curve's
components and each restriction to it are integers over a least
denominator; every matrix ranked or reduced to a kernel is an `IntMatrix`.
The fixture restricts l, p and q's partials to the curve once, as one
restricted gradient, the package's only restriction, and checks q(c0) = 0
from them; the verification derives f0's gradient from them, so
checks 1, 3 and 6 and check 5's root rows hold by construction.  It decides
the rest, checks 7-10 by exact ranks of integer matrices with no kernel
basis, retrying check 7 over redrawn generic points: every check is exact
even at complex roots.
The only tolerance is the singular-value rank of an evaluation-form
Jacobian's rows of values at user-given points that are not rational,
computed in pure Python (Golub-Kahan bidiagonalization and bisection).
Complex roots are labelled by a Durand-Kerner iteration in integers: the
package needs nothing beyond the standard library.
"""

from .construction import (
    Fixture,
    gradient_pairing_map,
    render_text,
    select_special_points,
    verify_construction,
)
from .errors import DimensionError, InputError
from .incidence import (
    CurveParam,
    IncidenceProblem,
    jacobian_coefficient_form,
    jacobian_evaluation_form,
    membership_checks,
    quintics_through_curve,
    random_member,
    restricted_gradient,
    symmetry_kernel_vectors,
)
from .linalg import IntMatrix, KernelBasis, kernel_exact, rank_exact, rank_numeric
from .poly import MultiPoly, monomial_basis

__version__ = "0.1.0"
