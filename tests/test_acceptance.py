"""Acceptance gate: twelve end-to-end checks, each with a hard time budget.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion.
Each test also prints its own summary line (visible with -s, or on failure).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from chamberkit.cli import run as cli_run
from chamberkit.hypersimplex import (AdmissiblePolytope, canonical_subset,
                                     chamber_complex, enumerate_admissible,
                                     omega_set)
from chamberkit.series import (ExpSeries, PolySum, comp_inverse_direct,
                               comp_inverse_strata, differential,
                               euler_interior, mult_inverse_direct,
                               mult_inverse_permutohedral, word)
from chamberkit.strata import (EXTENSION, TORIC, _partitions_of,
                               classify_outgrowth, dm_strata, lm_census,
                               lm_point_label_census_n5, lm_strata,
                               permutohedron_faces, reduction_divisors,
                               wonderful_divisor_census)
from chamberkit.weights import (STRICTLY_SEMISTABLE, TYPICAL,
                                CoincidencePartition, Linearisation,
                                WeightVector, classify_linearisation,
                                facet_cover_count, semistable_profile,
                                stability, xi)

from helpers import permute_point, permute_weight_signs

import json

SEED = 20260817

EXAMPLE_POINT = (Fraction(3, 5), Fraction(1, 3), Fraction(2, 5),
                 Fraction(1, 3), Fraction(1, 3))


@contextmanager
def budget(seconds, tag):
    t0 = time.perf_counter()
    yield
    took = time.perf_counter() - t0
    assert took < seconds, "%s exceeded %ds budget (%.1fs)" % (tag, seconds, took)
    print("%s: PASS (%.2fs)" % (tag, took))


def heavy_light(n):
    """The uniform source datum and a two-heavy target below it."""
    a = WeightVector([1] * n)
    b = WeightVector([1, 1] + [Fraction(1, 2 * (n - 2))] * (n - 2))
    return a, b


def test_criterion_01_example_chamber():
    with budget(1, "criterion 01 example chamber"):
        cc = chamber_complex(5)
        ch = cc.locate(EXAMPLE_POINT)
        assert ch.dim == 3
        assert not ch.on_boundary
        walls = [h.label for h in ch.zero_walls(cc.arrangement)]
        assert walls == ["sum{1,3}=1"]


def test_criterion_02_typicality_dichotomy():
    with budget(60, "criterion 02 typicality dichotomy"):
        for n in (5, 6):
            cc = chamber_complex(n, interior_only=True)
            typical_cells = []
            for ch in cc.chambers:
                kind = classify_linearisation(Linearisation(ch.witness)).kind
                assert (ch.dim == n - 1) == (kind == TYPICAL), ch.id
                if kind == TYPICAL:
                    typical_cells.append(ch)
            # no block of any partition can sum to 1 when no subset does;
            # certified per cell over all subsets in integer arithmetic
            for ch in typical_cells:
                den = math.lcm(*(x.denominator for x in ch.witness))
                nums = [int(x * den) for x in ch.witness]
                for size in range(1, n):
                    for combo in combinations(nums, size):
                        assert sum(combo) != den, ch.id
            # and the block-sum semantics itself, brute force on a sample
            parts = [CoincidencePartition(p)
                     for p in _partitions_of(tuple(range(1, n + 1)))]
            probe = typical_cells if n == 5 else typical_cells[::37]
            for ch in probe:
                L = Linearisation(ch.witness)
                for p in parts:
                    assert stability(L, p) != STRICTLY_SEMISTABLE


def test_criterion_03_chamber_invariance():
    with budget(60, "criterion 03 chamber invariance"):
        cc = chamber_complex(5, interior_only=True)
        for ch in cc.chambers:
            pts = cc.sample_relative_interior(ch, 5, seed=SEED)
            profiles = {semistable_profile(Linearisation(p)) for p in pts}
            assert len(profiles) == 1, ch.id


def test_criterion_04_xi_sizes():
    with budget(60, "criterion 04 xi sizes"):
        cc = chamber_complex(5, interior_only=True)
        tops = [ch for ch in cc.chambers if ch.dim == 4]
        assert len(tops) == 76
        for ch in tops:
            assert len(xi(ch)) == 1
        ch = chamber_complex(5).locate(EXAMPLE_POINT)
        assert len(xi(ch)) >= 2
        assert facet_cover_count(ch, 1) == 2


def test_criterion_05_reduction_divisor_counts():
    with budget(1, "criterion 05 reduction divisors"):
        for n, want in ((5, 1), (6, 5), (7, 16)):
            a, b = heavy_light(n)
            divs = reduction_divisors(a, b)
            assert len(divs) == want
            if n == 7:
                sizes = {}
                for d in divs:
                    sizes[len(d.i_set)] = sizes.get(len(d.i_set), 0) + 1
                assert sizes == {3: 10, 4: 5, 5: 1}


def test_criterion_06_dm_census():
    with budget(1, "criterion 06 nodal census"):
        census = dm_strata(5)
        assert census.by_codim[1] == 10
        assert census.by_codim[2] == 15


def test_criterion_07_lm_census():
    with budget(1, "criterion 07 chain census"):
        c = lm_census(5)
        assert c.by_dim[1] == 9
        assert c.chi == math.factorial(3) == 6
        # chi(open) - 9 + points = 6 pins the point count at 13;
        # an independent coordinate-label count agrees
        assert c.by_dim[0] == 13
        assert lm_point_label_census_n5()["total"] == 13
        text, code = cli_run(["strata", "--space", "lm", "--n", "5"])
        assert code == 0
        report = json.loads(text)
        assert report["results"]["census"]["by_dim"]["0"] == 13
        note = next(x for x in report["notes"] if x["topic"] == "lm-point-strata")
        assert note["computed"] == 13
        assert sorted(note["alternatives_seen"]) == [10, 14]


def test_criterion_08_outgrowth():
    with budget(1, "criterion 08 outgrowth split"):
        chains = [c for c in lm_strata(5) if not c.is_open()]
        toric = [c for c in chains if classify_outgrowth(c) == TORIC]
        ext = [c for c in chains if classify_outgrowth(c) == EXTENSION]
        assert len(toric) + len(ext) == len(chains)
        assert set(ext) == {c for c in chains if c.k == 1}
        orbits = [c for c in toric
                  if all(len(cl) == 1 for cls in c.clusters for cl in cls)]
        by_dim = {}
        for c in orbits:
            by_dim[c.dim] = by_dim.get(c.dim, 0) + 1
        assert by_dim == {1: 6, 0: 6}
        assert permutohedron_faces(2).f_vector == (6, 6, 1)


def test_criterion_09_euler_identities():
    with budget(60, "criterion 09 euler identities"):
        for m in range(0, 7):
            assert euler_interior(m) == (-1) ** m
        for n in (4, 5, 6, 7):
            assert lm_census(n).chi == math.factorial(n - 2)


def test_criterion_10_inversion_formulas():
    with budget(120, "criterion 10 inversion formulas"):
        rng = random.Random(SEED)

        def coeff():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        for _ in range(20):
            a2, a3, a4 = coeff(), coeff(), coeff()
            b = comp_inverse_strata(ExpSeries([0, 1, a2, a3, a4]))
            assert b.coeffs[3] == -a3 + 3 * a2 ** 2
            assert b.coeffs[4] == -a4 + 10 * a2 * a3 - 15 * a2 ** 3
        for _ in range(50):
            f = ExpSeries([0, 1] + [coeff() for _ in range(7)])
            assert comp_inverse_strata(f).coeffs == comp_inverse_direct(f).coeffs
            g = ExpSeries([1] + [coeff() for _ in range(8)])
            assert (mult_inverse_permutohedral(g).coeffs
                    == mult_inverse_direct(g).coeffs)


def test_criterion_11_divisor_consistency():
    with budget(10, "criterion 11 divisor consistency"):
        for n in (5, 6, 7):
            a, b = heavy_light(n)
            divs = reduction_divisors(a, b)
            wc = wonderful_divisor_census(n)
            assert wc.total == len(divs)
            sizes = {}
            for d in divs:
                sizes[len(d.i_set)] = sizes.get(len(d.i_set), 0) + 1
            assert wc.by_center_size == sizes


def _random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _permuted_admissible(perm, p):
    n = p.n
    if p.kind == "FULL":
        return p
    mapped = tuple(tuple(sorted(perm[i] for i in s)) for s in p.subsets)
    if p.kind == "SECTION":
        mapped = (tuple(sorted(canonical_subset(n, mapped[0]))),)
    else:
        mapped = tuple(sorted(mapped, key=lambda s: (len(s), s)))
    return AdmissiblePolytope(n, p.kind, mapped, p.dim)


def test_criterion_12_property_suite():
    with budget(300, "criterion 12 property suite"):
        rng = random.Random(SEED)
        cc = chamber_complex(5)
        cci = chamber_complex(5, interior_only=True)

        # chamber equivariance: each relabeling is a dim-preserving bijection
        for _ in range(3):
            perm = _random_perm(rng, 5)
            image = set()
            for ch in cc.chambers:
                tgt = cc.locate(permute_point(perm, ch.witness))
                assert tgt.dim == ch.dim
                assert tgt.on_boundary == ch.on_boundary
                image.add(tgt.index)
            assert len(image) == len(cc.chambers)

        # admissible polytopes: the family is closed under relabeling,
        # and the omega assignment commutes with it
        polys = enumerate_admissible(5)
        ids = {p.id for p in polys}
        for _ in range(5):
            perm = _random_perm(rng, 5)
            assert {_permuted_admissible(perm, p).id for p in polys} == ids
        for _ in range(12):
            perm = _random_perm(rng, 5)
            ch = cc.chambers[rng.randrange(len(cc.chambers))]
            tgt = cc.locate(permute_point(perm, ch.witness))
            moved = sorted(_permuted_admissible(perm, p).id
                           for p in polys if p.id in omega_set(ch))
            assert tuple(moved) == omega_set(tgt)

        # xi equivariance on a few one-wall interior cells
        one_wall = [ch for ch in cci.chambers
                    if ch.dim == 3 and "0" in ch.signs][::40][:3]
        assert one_wall
        for ch in one_wall:
            base = xi(ch)
            for _ in range(2):
                perm = _random_perm(rng, 5)
                tgt = cci.locate(permute_point(perm, ch.witness))
                moved = {permute_weight_signs(5, perm, s) for s in base}
                assert moved == set(xi(tgt))

        # coverage: random rational points always land in an enumerated cell
        # whose witness carries the same semistable profile
        verts = [tuple(Fraction(int(i in pair)) for i in range(5))
                 for pair in combinations(range(5), 2)]
        for _ in range(60):
            wts = [rng.randint(1, 53) for _ in verts]
            tot = sum(wts)
            pt = tuple(sum(Fraction(w) * v[j] for w, v in zip(wts, verts)) / tot
                       for j in range(5))
            ch = cc.locate(pt)
            assert (semistable_profile(Linearisation(pt))
                    == semistable_profile(Linearisation(ch.witness)))

        # involutions: inverting twice restores the series
        def coeff():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        for _ in range(12):
            g = ExpSeries([1] + [coeff() for _ in range(8)])
            assert mult_inverse_direct(mult_inverse_direct(g)).coeffs == g.coeffs
            f = ExpSeries([0, 1] + [coeff() for _ in range(7)])
            assert comp_inverse_direct(comp_inverse_direct(f)).coeffs == f.coeffs

        # Leibniz law for the facet differential
        def random_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(sorted((rng.randint(0, 4)
                                  for _ in range(rng.randint(1, 3))),
                                 reverse=True))
                terms[w] = terms.get(w, 0) + rng.randint(-4, 4)
            return PolySum.make(terms)

        for _ in range(12):
            p, q = random_poly(), random_poly()
            assert differential(p * q) == differential(p) * q + p * differential(q)
        assert differential(word(0)) == PolySum.zero()
