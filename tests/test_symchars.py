import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_strategies import gamma_specs, pooled_weights
from oracles import _stab_char_value, cycle_type_rep, specht_character, standard_tableaux_count
from wreatho.skew_o import _flip_layer_choices
from wreatho.symchars import (
    CharTable,
    char_table,
    char_value,
    class_size,
    dim_irrep,
    check_irrep,
    induce_restrict_mult,
    irrep_dim,
    irrep_labels,
    list_irreps,
    parse_irrep_labels,
    partitions_of,
    restricted_inner_product,
)
from wreatho.weights import CycF, GroupDesc, SymF, flip_subset, parse_gamma, stabilizer


class TestCharValues:
    def test_hook_oracle_dim(self):
        # identity-class value equals the standard-tableaux count
        assert char_value((2, 1), (1, 1, 1)) == standard_tableaux_count((2, 1)) == 2

    def test_trivial_rep(self):
        for mu in partitions_of(5):
            assert char_value((5,), mu) == 1

    def test_two_one_on_three_cycle(self):
        # frozen from the explicit 2-dim representation (Specht trace)
        assert specht_character((2, 1), cycle_type_rep((3,), 3)) == -1
        assert char_value((2, 1), (3,)) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            char_value((2, 1), (2, 2))

    def test_murnaghan_nakayama_vs_specht(self):
        for n in range(1, 5):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    g = cycle_type_rep(mu, n)
                    assert char_value(lam, mu) == specht_character(lam, g), (lam, mu)


class TestDims:
    def test_standard_tableaux(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                assert dim_irrep(lam) == standard_tableaux_count(lam)

    def test_one_row_one_column(self):
        assert dim_irrep((7,)) == 1
        assert dim_irrep((1, 1, 1)) == 1

    def test_squares_sum(self):
        for n in range(1, 8):
            assert sum(dim_irrep(p) ** 2 for p in partitions_of(n)) == math.factorial(n)


class TestTables:
    def test_n2(self):
        t = char_table(2)
        assert t.partitions == [(2,), (1, 1)]
        assert t.classes == [(1, 1), (2,)]
        assert t.values == [[1, 1], [1, -1]]

    def test_n1(self):
        assert char_table(1).values == [[1]]

    def test_n3_row(self):
        t = char_table(3)
        row = t.values[t.partitions.index((2, 1))]
        assert t.classes == [(1, 1, 1), (2, 1), (3,)]
        assert row == [2, 0, -1]

    def test_orthogonality(self):
        for n in range(1, 7):
            char_table(n).validate()

    def test_column_orthogonality(self):
        for n in range(2, 6):
            t = char_table(n)
            k = len(t.classes)
            for a in range(k):
                for b in range(k):
                    dot = sum(t.values[i][a] * t.values[i][b] for i in range(len(t.partitions)))
                    expected = math.factorial(n) // class_size(t.classes[a]) if a == b else 0
                    assert dot == expected

    def test_cap(self):
        with pytest.raises(ValueError):
            char_table(9)
        CharTable.compute(9).validate()


class TestNoFiles:
    def test_tables_write_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("WREATHO_CACHE_DIR", str(tmp_path / "cache"))
        for n in range(1, 7):
            char_table(n)
        assert list(tmp_path.iterdir()) == []


def sym(positions):
    return SymF(tuple(positions))


class TestInduceRestrict:
    def test_regular_s2(self):
        sub = GroupDesc(2, ())
        sup = GroupDesc(2, (sym((0, 1)),))
        assert induce_restrict_mult(sub, (), sup, ((2,),)) == 1
        assert induce_restrict_mult(sub, (), sup, ((1, 1),)) == 1

    def test_regular_cyclic3(self):
        sub = GroupDesc(3, ())
        sup = GroupDesc(3, (CycF((0, 1, 2), 3),))
        for j in range(3):
            assert induce_restrict_mult(sub, (), sup, (j,)) == 1

    def test_identity_induction(self):
        g = GroupDesc(2, (sym((0, 1)),))
        assert induce_restrict_mult(g, ((1, 1),), g, ((1, 1),)) == 1
        assert induce_restrict_mult(g, ((1, 1),), g, ((2,),)) == 0

    def test_not_subgroup(self):
        g2 = GroupDesc(2, (sym((0, 1)),))
        g_other = GroupDesc(2, (CycF((0, 1), 2),))
        with pytest.raises(ValueError):
            induce_restrict_mult(g_other, (0,), g2, ((2,),))

    def test_dimension_accounting(self):
        rng = random.Random(9)
        cases = [
            (GroupDesc(3, (sym((0, 1)),)), GroupDesc(3, (sym((0, 1, 2)),))),
            (GroupDesc(4, (sym((0, 1)), sym((2, 3)))), GroupDesc(4, (sym((0, 1, 2, 3)),))),
            (GroupDesc(4, (CycF((0, 1, 2, 3), 2),)), GroupDesc(4, (CycF((0, 1, 2, 3), 4),))),
            (GroupDesc(3, ()), GroupDesc(3, (sym((0, 2)),))),
        ]
        for sub, sup in cases:
            for sub_irrep in list_irreps(sub):
                total = 0
                for sup_irrep in list_irreps(sup):
                    m = induce_restrict_mult(sub, sub_irrep, sup, sup_irrep)
                    total += m * irrep_dim(sup, sup_irrep)
                index = sup.order // sub.order
                assert total == index * irrep_dim(sub, sub_irrep), (sub, sup, sub_irrep)

    def test_branching_vs_specht(self):
        # restriction S3 -> S2 computed two ways
        sub = GroupDesc(3, (sym((0, 1)),))
        sup = GroupDesc(3, (sym((0, 1, 2)),))
        for lam in partitions_of(3):
            for mu in partitions_of(2):
                got = induce_restrict_mult(sub, (mu,), sup, (lam,))
                # Frobenius the slow way via explicit traces over S2 = {id, (01)}
                ident = (0, 1, 2)
                swap = (1, 0, 2)
                val = (
                    specht_character(lam, ident) * specht_character(mu, (0, 1))
                    + specht_character(lam, swap) * specht_character(mu, (1, 0))
                ) / 2
                assert got == val


# Young blocks and C:2 blocks: the oracle's cyclic characters are signs
_SYM_C2_BLOCKS = [
    ("S", (1,)), ("S", (2,)), ("S", (3,)), ("S", (1, 2)), ("S", (2, 2)), ("C", 2),
]


@st.composite
def _flip_layer_cases(draw):
    gamma = draw(gamma_specs(kinds=_SYM_C2_BLOCKS))
    return gamma, draw(pooled_weights(gamma))


class TestRestrictedInnerProduct:
    @settings(max_examples=60)
    @given(_flip_layer_cases())
    def test_against_class_sum_oracle(self, case):
        # every (T, stab_T) the Verma decomposition asks about, against
        # (1/|sub|) sum over sub's elements of chi1(h) chi2(h)
        gamma, lam = case
        stab = stabilizer(gamma, lam)
        for t_set, sub in _flip_layer_choices(gamma, lam):
            stab_nu = stabilizer(gamma, flip_subset(lam, t_set))
            elements = sub.elements()
            for irrep1 in list_irreps(stab):
                for irrep2 in list_irreps(stab_nu):
                    expected = sum(
                        _stab_char_value(stab, irrep1, h) * _stab_char_value(stab_nu, irrep2, h)
                        for h in elements
                    ) / Fraction(len(elements))
                    got = restricted_inner_product(sub, stab, irrep1, stab_nu, irrep2)
                    assert got == expected, (gamma, lam, t_set, irrep1, irrep2)

    @settings(max_examples=100)
    @given(st.data())
    def test_induce_restrict_dimension(self, data):
        # over every block kind, C:3 and C:4 included, where the class-sum
        # oracle above has no characters:
        # sum_{irrep2} m * dim(irrep2) = dim Ind_sub^{stab_nu} Res_sub irrep1
        #                             = [stab_nu : sub] * dim(irrep1)
        gamma = data.draw(gamma_specs())
        lam = data.draw(pooled_weights(gamma))
        stab = stabilizer(gamma, lam)
        irreps = list_irreps(stab)
        for irrep1 in irreps:
            # restricted to the whole group the irreps are orthonormal
            for irrep2 in irreps:
                got = restricted_inner_product(stab, stab, irrep1, stab, irrep2)
                assert got == (irrep1 == irrep2), (gamma, lam, irrep1, irrep2)
        for t_set, sub in _flip_layer_choices(gamma, lam):
            stab_nu = stabilizer(gamma, flip_subset(lam, t_set))
            index = stab_nu.order // sub.order
            for irrep1 in irreps:
                total = sum(
                    restricted_inner_product(sub, stab, irrep1, stab_nu, irrep2)
                    * irrep_dim(stab_nu, irrep2)
                    for irrep2 in list_irreps(stab_nu)
                )
                assert total == index * irrep_dim(stab, irrep1), (
                    gamma, lam, t_set, irrep1,
                )


class TestIrrepLabels:
    @settings(max_examples=100)
    @given(st.data())
    def test_round_trip(self, data):
        gamma = data.draw(gamma_specs())
        stab = stabilizer(gamma, data.draw(pooled_weights(gamma)))
        for irrep in list_irreps(stab):
            assert check_irrep(stab, irrep) == irrep
            assert parse_irrep_labels(stab, irrep_labels(stab, irrep)) == irrep

    @pytest.mark.parametrize(
        "spec, labels",
        [
            ("C:3", ["j=3"]),
            ("C:3", ["j=-1"]),
            ("C:3", ["2"]),
            ("C:3", ["i=1"]),
            ("C:3", ["j="]),
            ("C:3", ["j=x"]),
            ("C:3", []),
            ("C:3", ["j=0", "j=0"]),
            ("S:2", ["3"]),
            ("S:2", ["1,1,1"]),
            ("S:2", ["0,2"]),
            ("S:2", ["1,2"]),
            ("S:2", [""]),
            ("S:2", ["j=1"]),
        ],
    )
    def test_rejects_text_naming_no_irrep(self, spec, labels):
        gamma = parse_gamma(spec)
        stab = stabilizer(gamma, tuple(Fraction(0) for _ in range(gamma.n)))
        with pytest.raises(ValueError):
            parse_irrep_labels(stab, labels)
