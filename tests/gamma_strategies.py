"""Hypothesis strategies for random GammaSpecs and weight coordinates,
shared by the property tests."""

from fractions import Fraction as F

from hypothesis import strategies as st

from wreatho.weights import GammaSpec

# blocks of width <= 4 mixing S:, C: and 1: kinds
_CHAR_BLOCKS = [
    ("S", (1,)), ("S", (2,)), ("S", (3,)), ("S", (4,)), ("S", (1, 2)), ("S", (2, 2)),
    ("C", 2), ("C", 3), ("C", 4), ("1", 1), ("1", 2),
]
# integral dominant, -1, other negative integral and half-integral values
CHAR_COORD = st.one_of(
    st.integers(0, 3).map(F),
    st.sampled_from([F(-1), F(-2)]),
    st.integers(-5, -3).map(F),
    st.integers(-4, 3).map(lambda k: F(2 * k + 1, 2)),
)
# CHAR_COORD and thirds, so a weight, and an orbit's coordinate, can mix the
# denominators 1, 2 and 3
MIXED_COORD = st.one_of(
    CHAR_COORD,
    st.integers(-7, 5).filter(lambda k: k % 3).map(lambda k: F(k, 3)),
)


def _block_width(block):
    kind, data = block
    return sum(data) if kind == "S" else data


@st.composite
def gamma_specs(draw, max_rank=4, kinds=_CHAR_BLOCKS):
    """A GammaSpec of rank <= max_rank built from the blocks in kinds."""
    blocks = []
    width = 0
    while not blocks or (width < max_rank and draw(st.booleans())):
        fits = [b for b in kinds if _block_width(b) <= max_rank - width]
        block = draw(st.sampled_from(fits))
        blocks.append(block)
        width += _block_width(block)
    return GammaSpec(tuple(blocks))


@st.composite
def pooled_weights(draw, gamma, coords=CHAR_COORD):
    """A weight whose coordinates come from a pool of at most three values,
    so coordinates repeat and stabilizers are nontrivial."""
    pool = draw(st.lists(coords, min_size=1, max_size=3))
    return tuple(draw(st.sampled_from(pool)) for _ in range(gamma.n))
