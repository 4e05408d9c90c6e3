"""Exact symbolic engine for the blowup calculus of sphere classes.

Modules:
    rings     -- rationals, polynomials in x, truncated t-series and
                 polynomials in the sphere class alpha
    record    -- the frozen-record base of the engine's value types
    elliptic  -- the blowup series B, S, Delta, Q, q from Weierstrass data,
                 their checked identities and their q-basis products
    model     -- blowup-model moments and twist-count series
    embedded  -- structure equations of embedded spheres
    immersed  -- the inductive machine for immersed-sphere structure
                 equations in q-normal form, plus finite-type orders
    lens      -- flat character classes of L(p,1) and charge posets
    emit      -- text / JSON / LaTeX / DOT / ASCII emitters
    cli       -- command-line front end
"""

from .elliptic import BlowupFunctions, blowup_functions, verify_elliptic_identities
from .embedded import EmbeddedRelation, derive_embedded, verify_embedded_relation
from .immersed import NormalForm, derive_immersed, finite_type_order, shift_reduce
from .lens import (
    FlatClass,
    PosetJ,
    build_poset,
    character_variety,
    dim_cylinder,
    dim_end,
    minimal_energy,
)
from .rings import PolyX, AlphaPoly, SeriesT, rat

__all__ = [
    "AlphaPoly",
    "BlowupFunctions",
    "EmbeddedRelation",
    "FlatClass",
    "NormalForm",
    "PolyX",
    "PosetJ",
    "SeriesT",
    "blowup_functions",
    "build_poset",
    "character_variety",
    "derive_embedded",
    "derive_immersed",
    "dim_cylinder",
    "dim_end",
    "finite_type_order",
    "minimal_energy",
    "rat",
    "shift_reduce",
    "verify_elliptic_identities",
    "verify_embedded_relation",
]

__version__ = "1.0.0"
