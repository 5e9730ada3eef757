"""Shrinking-braid monoid computations.

Public surface re-exported here: words over the monoid generators and their
rewriting (``words``), reduced free-group words and the curve order
(``freegroup``), the faithful representation and the left-invariant order
(``representation``), the x-submonoid with canonical forms and sequence
invariants (``xmonoid``), LD operations on braids (``ldops``), braid coloring
(``coloring``) and the enveloping LD monoid over finite tables (``envelope``).
"""

from .freegroup import Cmp, FLetter, FWord, curve_cmp, finv, fmul, parse_fword, psi, reduce
from .words import (
    Generator,
    Kind,
    RWord,
    XLetterPresentError,
    apply_relation,
    braid_inverse,
    free_cancel,
    parse_rword,
    shift,
    sigma,
    sigma_inv,
    sx_decompose,
    x,
)
from .representation import (
    apply_gen,
    apply_word,
    cmp_L,
    morphism_eq,
    stabilizes_x_power,
)
from .xmonoid import XSeq, XWord, lex_cmp, p_eval, s_of, seq_compose, sf_eval, x_canonicalize
from .ldops import (
    BElement,
    LDTerm,
    LEAF,
    b_circ,
    b_dot,
    circ,
    dot,
    enumerate_terms,
    eval_term,
    eval_term_b,
    laver_cmp,
    ld_circ,
    ld_dot,
    parse_term,
    shift_vector,
    sigma_on_braids,
)
from .coloring import ColoredMorphism, InvalidStrandIndexError, RankMismatchError, color, compose_colored
from .envelope import (
    LDTable,
    NotLeftDistributiveError,
    IndexOutOfRangeError,
    OrbitResult,
    cyclic_table,
    load_table,
    one_element_table,
    parse_table,
    seq_length,
    singleton,
)
