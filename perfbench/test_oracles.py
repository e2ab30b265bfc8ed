"""The benchmark's oracles checked against one another on small inputs.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Tables here come from the oracles' own formulas, so these tests do not
import bilbiq.
"""

import itertools
import random
import unittest

import oracles

HOPF = "O1+U2+;O2+U1+"
FIGURE8 = "O1+U2+O3-U4-O2+U1+O4-U3-"
TREFOIL = "O1+U2+O3+U1+O2+U3+"
# Virtual links whose components have non-zero exponent e_c.
VIRTUAL = ["O1+;U1+", "O1+O2+;U1+U2+", "O1-U2+;O2+U1-"]


def bilinear_tables(n, m, alpha, beta, A):
    w = oracles.omega(alpha, beta, n)
    carrier = oracles.vectors(n, m)
    index = {v: i for i, v in enumerate(carrier)}
    tabs = {
        op: [[index[oracles.bilinear_op(op, x, y, n, alpha, beta, A, w)] for y in carrier] for x in carrier]
        for op in ("up", "upbar", "low", "lowbar")
    }
    return tabs, carrier


def zero_form(n, m, alpha):
    return bilinear_tables(n, m, alpha, pow(alpha, -1, n), [[0] * m for _ in range(m)])


def dihedral3():
    """a^b = 2b - a on Z_3 (Fox 3-colorings), lower operations trivial."""
    up = [[(2 * b - a) % 3 for b in range(3)] for a in range(3)]
    ident = [[a] * 3 for a in range(3)]
    return {"up": up, "upbar": up, "low": ident, "lowbar": ident}


class ZeroFormClosedForm(unittest.TestCase):
    # (n, m, alpha): 9- and 16-element targets for hopf_pos, and 4- and
    # 5-element ones where figure8's 8 semiarcs stay affordable.
    HOPF_TARGETS = [(3, 2, 2), (4, 2, 3), (5, 1, 2)]
    FIGURE8_TARGETS = [(4, 1, 3), (5, 1, 2), (2, 2, 1)]

    def agree(self, code, n, m, alpha):
        tabs, carrier = zero_form(n, m, alpha)
        cols = oracles.exhaustive_colorings(code, tabs, len(carrier))
        self.assertEqual(len(cols), oracles.zero_form_count(code, n, m, alpha), code)
        self.assertEqual(oracles.phi_terms(cols, tabs, carrier, n), oracles.zero_form_phi(code, n, m, alpha), code)

    def test_hopf(self):
        for target in self.HOPF_TARGETS:
            self.agree(HOPF, *target)

    def test_figure8(self):
        for target in self.FIGURE8_TARGETS:
            self.agree(FIGURE8, *target)

    def test_virtual_links_with_nonzero_exponents(self):
        for code in VIRTUAL:
            for target in [(3, 2, 2), (5, 1, 2), (7, 1, 3)]:
                self.agree(code, *target)
        self.assertEqual(oracles.zero_form_count("O1+O2+;U1+U2+", 7, 1, 3), 1)


class ColoringProperties(unittest.TestCase):
    def setUp(self):
        self.bb1, self.carrier = bilinear_tables(4, 2, 3, 3, [[0, 2], [2, 0]])

    def count(self, code, tabs=None, size=16):
        return len(oracles.exhaustive_colorings(code, tabs or self.bb1, size))

    def test_unlinks_have_size_to_the_k(self):
        for k in (1, 2, 3):
            self.assertEqual(self.count(";" * (k - 1)), 16**k)

    def test_split_union_multiplies_by_size(self):
        tabs, carrier = bilinear_tables(3, 2, 2, 2, [[0, 1], [2, 0]])
        self.assertEqual(self.count(HOPF + ";", tabs, 9), self.count(HOPF, tabs, 9) * 9)

    def test_exhaustive_limit(self):
        with self.assertRaises(ValueError):
            self.count(FIGURE8)

    def test_reidemeister_variants_keep_count_and_phi(self):
        tabs = dihedral3()
        carrier = [(a,) for a in range(3)]
        for code in (TREFOIL, "O1-U2-O3-U1-O2-U3-", HOPF):
            base = oracles.exhaustive_colorings(code, tabs, 3)
            for seed in range(2):
                variant = oracles.reidemeister_variant(code, random.Random(seed))
                self.assertEqual(oracles.relations(variant)[0], oracles.relations(code)[0] + 6)
                cols = oracles.exhaustive_colorings(variant, tabs, 3)
                self.assertEqual(len(cols), len(base), variant)
                self.assertEqual(oracles.phi_terms(cols, tabs, carrier, 3), oracles.phi_terms(base, tabs, carrier, 3))
        self.assertEqual(len(oracles.exhaustive_colorings(TREFOIL, tabs, 3)), 9)

    def test_variants_follow_the_seed(self):
        a, b = (oracles.reidemeister_variant(FIGURE8, random.Random(7)) for _ in range(2))
        self.assertEqual(a, b)
        self.assertGreater(len({oracles.reidemeister_variant(FIGURE8, random.Random(s)) for s in range(16)}), 1)

    def test_closure_of_bb1_generators(self):
        whole = oracles.closure({1, 4}, self.bb1)
        self.assertEqual(oracles.closure(whole, self.bb1), whole)
        self.assertEqual(oracles.closure({0}, self.bb1), {0})


class TablesAndAxioms(unittest.TestCase):
    def test_formula_tables_satisfy_every_axiom(self):
        for n, m, alpha, beta, A in [(4, 2, 3, 3, [[0, 2], [2, 0]]), (3, 2, 2, 2, [[0, 1], [2, 0]])]:
            tabs, carrier = bilinear_tables(n, m, alpha, beta, A)
            size = len(carrier)
            for a, b in itertools.product(range(size), repeat=2):
                self.assertTrue(oracles.axiom_holds(tabs, size, 1, (a, b)))
                self.assertTrue(oracles.axiom_holds(tabs, size, 2, (a, b)))
            self.assertEqual(oracles.sampled_axiom_failures(tabs, size, random.Random(0), 50), [])

    def test_wrong_omega_breaks_axiom_1(self):
        n, alpha, beta, A = 4, 3, 3, [[0, 1], [3, 0]]
        self.assertEqual(oracles.omega(alpha, beta, n), 3)
        carrier = oracles.vectors(n, 2)
        index = {v: i for i, v in enumerate(carrier)}
        tabs = {op: [[index[oracles.bilinear_op(op, x, y, n, alpha, beta, A, 1)] for y in carrier] for x in carrier]
                for op in ("up", "upbar", "low", "lowbar")}
        self.assertFalse(all(oracles.axiom_holds(tabs, 16, 1, p) for p in itertools.product(range(16), repeat=2)))

    def test_sampled_entries_catch_a_wrong_entry(self):
        tabs, carrier = bilinear_tables(3, 2, 2, 2, [[0, 1], [2, 0]])
        params = (3, 2, 2, [[0, 1], [2, 0]], oracles.omega(2, 2, 3))
        self.assertEqual(oracles.sampled_entry_mismatches(tabs, carrier, params, random.Random(1), 200), [])
        tabs["up"][4][5] = (tabs["up"][4][5] + 1) % 9
        self.assertTrue(oracles.sampled_entry_mismatches(tabs, carrier, params, random.Random(1), 400))


if __name__ == "__main__":
    unittest.main()
