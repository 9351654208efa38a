"""Exact arithmetic for point configurations on the projective line.

Computes automorphism groups, fields of moduli, the associated conic
obstruction, and certified verdicts on rationality of the model, for
divisors defined over iterated quadratic extensions of Q.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .qfield import (  # noqa: F401
    FieldElem,
    FieldTower,
    GaloisAut,
    GaloisGroup,
    fixed_subtower,
    galois_group,
    multiquadratic_tower,
    tower_extend,
)

from .projline import (  # noqa: F401
    Mobius,
    ProjPoint,
    fixed_points,
    mobius_from_triples,
)

from .divisor import (  # noqa: F401
    AutGroup,
    Divisor,
    compute_aut,
    conjugate_divisor,
    pgl2_equivalent,
)

from .moduli import (  # noqa: F401
    CompressionResult,
    ModuliData,
    cocycle_class_to_quaternion,
    compressed_divisor,
    compression,
    descent_cocycle,
    field_of_moduli,
    quotient_ramification,
)

from .conic import (  # noqa: F401
    TernaryForm,
    diagonalize,
    find_point,
    hasse_solvable,
    hilbert_symbol,
    parametrize,
)

from .decide import (  # noqa: F401
    Certificate,
    Verdict,
    build_p1_model,
    decide,
    verify_certificate,
)

from .construct import (  # noqa: F401
    CounterexampleSpec,
    deg6_normal_form,
    gen_counterexample,
    hyperelliptic_branch_analysis,
    random_twisted_divisor,
)
