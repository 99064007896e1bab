"""Tests for the symbol parser, evaluator, and r-series construction."""

from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

from nlode import special_functions, symbols
from nlode.solver import PoleSpec, Solution, hypothesis_gates
from nlode.symbols import (
    Add,
    AnalyticSymbol,
    Call,
    Const,
    Mul,
    Sub,
    Var,
    ZetaNode,
    DataSequence,
    SymbolSyntaxError,
    build_r_series,
    eval_symbol,
    format_symbol,
    laurent_coefficients,
    parse_expression,
    parse_symbol,
    taylor_coefficients,
)
from nlode.transforms import BromwichConfig, Forcing, forcing_from_text

ZETA_3 = 1.2020569031595942
ZETA_PRIME_3 = -0.1981262429007202


class TestParser:
    def test_polynomial(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        assert eval_symbol(f, 0.0) == pytest.approx(2.0)
        assert eval_symbol(f, -1.0) == pytest.approx(0.0)
        assert eval_symbol(f, 1j) == pytest.approx((1j + 1) * (1j + 2))

    def test_precedence(self):
        f = parse_symbol("1 + 2*s^2")
        assert eval_symbol(f, 3.0) == pytest.approx(19.0)

    def test_unary_minus(self):
        f = parse_symbol("-s^2 + 1")
        assert eval_symbol(f, 2.0) == pytest.approx(-3.0)

    def test_division(self):
        f = parse_symbol("(s + 3)/(s + 1)")
        assert eval_symbol(f, 1.0) == pytest.approx(2.0)

    def test_imaginary_unit(self):
        f = parse_symbol("s + i")
        assert eval_symbol(f, 1.0) == pytest.approx(1.0 + 1.0j)

    def test_exp(self):
        f = parse_symbol("exp(2*s)")
        assert eval_symbol(f, 0.5) == pytest.approx(math.e)

    def test_zeta_shift(self):
        f = parse_symbol("zeta(s + 3)")
        assert eval_symbol(f, 0.0) == pytest.approx(ZETA_3, abs=1e-13)
        assert eval_symbol(f, -5.0) == pytest.approx(0.0, abs=1e-12)

    def test_zeta_shift_pole(self):
        # the pole of zeta(s + 2) sits at s = 1 - 2
        with pytest.raises(ValueError, match="pole"):
            eval_symbol(parse_symbol("zeta(s + 2)"), -1.0)

    def test_vectorized_eval(self):
        f = parse_symbol("s^2 + 1")
        out = eval_symbol(f, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert np.allclose(out, [1.0, 2.0, 5.0])

    def test_whitespace_insensitive(self):
        a = parse_symbol("( s+1 ) * exp( -s )")
        b = parse_symbol("(s + 1)*exp(-s)")
        pts = np.array([0.3, 1.0 + 0.5j, -0.2j])
        assert np.allclose(eval_symbol(a, pts), eval_symbol(b, pts))

    def test_format_round_trip(self):
        for text in ("(s + 1)*(s + 2)", "exp(2*(s^2 + 0.5*s))*(s^2 + 0.5*s - 1) + 2",
                     "zeta(s + 3)", "1/(s + 0.5 - i)"):
            f = parse_symbol(text)
            g = parse_symbol(format_symbol(f))
            pts = np.array([0.1, 0.5 + 0.2j, -0.3 + 1j])
            assert np.allclose(eval_symbol(f, pts), eval_symbol(g, pts))
        # a forcing's tree is in t, and formats in t
        j = forcing_from_text("t*exp(-t)").j_eval
        assert AnalyticSymbol(parse_expression(format_symbol(j), "t", allow_zeta=False)) == j

    def test_a_symbol_is_its_tree(self):
        parsed, built = parse_symbol("zeta(s + 3)"), AnalyticSymbol(ZetaNode(3.0))
        assert parsed == built and hash(parsed) == hash(built)

    @pytest.mark.parametrize("bad", [
        "s +", "(s", "s)", "q + 1", "s^-1", "s^0.5", "s^s", "exp s",
        "zeta(2*s)", "zeta(s + 0.5)", "zeta(s + 1)", "zeta(s*s)", "", "1 2",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(bad)

    def test_zeta_forbidden_in_plain_expressions(self):
        with pytest.raises(SymbolSyntaxError):
            parse_expression("zeta(t + 3)", "t", allow_zeta=False)

    def test_error_carries_position(self):
        with pytest.raises(SymbolSyntaxError) as info:
            parse_symbol("s + @")
        assert info.value.position == 4


class TestEvaluation:
    ZS = 0.5 + 1j * np.linspace(-50.0, 50.0, 101)

    def record_zeta(self, monkeypatch) -> list:
        args = []

        def recording(z):
            args.append(np.array(z))
            return special_functions.zeta(z)

        monkeypatch.setattr(symbols, "zeta", recording)
        return args

    # not a conjugate palindrome, so evaluated on the whole set
    ZA = 0.5 + 1j * np.linspace(-40.0, 60.0, 101)

    @staticmethod
    def zeta_mirrored(z):
        """zeta on the upper half ZS[50:] of the symmetric ZS, its conjugates
        below: the values a real tree takes on ZS."""
        upper = special_functions.zeta(z[50:])
        return np.concatenate([upper[:0:-1].conj(), upper])

    def test_shared_zeta_node_evaluated_once(self, monkeypatch):
        args = self.record_zeta(monkeypatch)
        val = eval_symbol(parse_symbol("zeta(s + 3)*(zeta(s + 3) - 1)"), self.ZS)
        assert len(args) == 1
        z = self.zeta_mirrored(self.ZS + 3.0)
        assert np.array_equal(val, z * (z - 1))

    def test_shared_zeta_node_on_asymmetric_set(self, monkeypatch):
        args = self.record_zeta(monkeypatch)
        val = eval_symbol(parse_symbol("zeta(s + 3)*(zeta(s + 3) - 1)"), self.ZA)
        assert len(args) == 1
        z = special_functions.zeta(self.ZA + 3.0)
        assert np.array_equal(val, z * (z - 1))

    def test_distinct_shifts_evaluated_apart(self, monkeypatch):
        args = self.record_zeta(monkeypatch)
        val = eval_symbol(parse_symbol("zeta(s + 2) - zeta(s + 3) + zeta(s + 2)"), self.ZS)
        assert len(args) == 2
        z2, z3 = (self.zeta_mirrored(self.ZS + h) for h in (2.0, 3.0))
        assert np.array_equal(val, z2 - z3 + z2)

    def test_no_memo_across_evaluations(self, monkeypatch):
        args = self.record_zeta(monkeypatch)
        f = parse_symbol("zeta(s + 3)")
        eval_symbol(f, self.ZS)
        eval_symbol(f, self.ZS + 1.0)
        assert len(args) == 2 and not np.array_equal(args[0], args[1])

    def test_call_leaf(self):
        f = AnalyticSymbol(Mul(Call(np.exp), Var("s")))
        assert np.array_equal(eval_symbol(f, self.ZS), np.exp(self.ZS) * self.ZS)
        assert eval_symbol(f, 1.0) == pytest.approx(math.e)
        with pytest.raises(TypeError):
            taylor_coefficients(f, 2)


def _palindrome(n: int, x: float = 0.5) -> np.ndarray:
    """n points x + iy with s[::-1] == conj(s) exactly; y = 0 in the middle
    when n is odd."""
    y = 0.75 * np.arange(1, n // 2 + 1)
    return x + 1j * np.concatenate([-y[::-1], [0.0] * (n % 2), y])


class TestConjugateMirror:
    """A real tree on a conjugate palindrome is evaluated on its upper half."""

    def record(self, monkeypatch, name: str) -> list:
        sizes = []
        original = getattr(symbols, name)

        def recording(*args):
            sizes.append(np.shape(args[1] if name == "_eval_node" else args[0]))
            return original(*args)

        monkeypatch.setattr(symbols, name, recording)
        return sizes

    @pytest.mark.parametrize("n", [101, 100, 2])
    def test_real_zeta_tree_evaluated_on_half(self, monkeypatch, n):
        f = parse_symbol("zeta(s + 3)*(zeta(s + 2) - 1)/(s + 0.5)")
        sizes = self.record(monkeypatch, "zeta")
        s = _palindrome(n)
        v = eval_symbol(f, s)
        assert sizes == [((n + 1) // 2,)] * 2
        assert v.shape == (n,) and np.array_equal(v[::-1], v.conj())

    def test_mirror_is_bit_identical_for_elementary_tree(self):
        f = parse_symbol("exp(-s)/((s + 1)*(s + 2))")
        for s in (_palindrome(101), _palindrome(100, 0.01),
                  0.5 + 1j * np.linspace(-200.0, 200.0, 4097)):
            with np.errstate(all="ignore"):
                want = symbols._eval_node(f.expr, s)
            got = eval_symbol(f, s)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize("f, s", [
        (parse_symbol("zeta(s + 3) + i"), _palindrome(101)),
        (AnalyticSymbol(Mul(Call(np.exp), Var("s"))), _palindrome(101)),
        (parse_symbol("zeta(s + 3)"), 0.5 + 1j * np.linspace(-50.0, 60.0, 101)),
        (parse_symbol("zeta(s + 3)"), np.stack([_palindrome(101)] * 2)),
        (parse_symbol("exp(-s)/((s + 1)*(s + 2))"),
         np.where(np.arange(101) % 50 == 0, np.nan, _palindrome(101))),
    ], ids=["complex-constant", "call-leaf", "asymmetric", "2-D", "nan-point"])
    def test_full_set_evaluated(self, monkeypatch, f, s):
        sizes = self.record(monkeypatch, "_eval_node")
        v = eval_symbol(f, s)
        assert v.shape == s.shape and set(sizes) == {s.shape}

    def test_tree_walked_only_for_a_palindrome(self, monkeypatch):
        # a Cauchy ring is no conjugate palindrome: the realness of the
        # tree cannot matter, so it is not checked
        f = parse_symbol("exp(-s)/((s + 1)*(s + 2))")
        walks = self.record(monkeypatch, "_is_real")
        ring = 0.5 + 0.25 * np.exp(2j * np.pi * np.arange(256) / 256)
        with np.errstate(all="ignore"):
            want = symbols._eval_node(f.expr, ring)
        assert np.array_equal(eval_symbol(f, ring), want) and walks == []
        eval_symbol(f, _palindrome(101))
        assert len(walks) == 1


class TestTaylorCoefficients:
    def test_exponential(self):
        f = parse_symbol("exp(s)")
        c = taylor_coefficients(f, 8)
        expect = np.array([1.0 / math.factorial(n) for n in range(9)])
        assert np.max(np.abs(c - expect)) < 1e-12

    def test_polynomial_terminates(self):
        f = parse_symbol("(s + 1)*(s + 2)")
        c = taylor_coefficients(f, 5)
        assert np.allclose(c, [2.0, 3.0, 1.0, 0.0, 0.0, 0.0])

    def test_quotient(self):
        # 1/(1 - s) = sum s^n inside the unit disk
        f = parse_symbol("1/(1 - s)")
        c = taylor_coefficients(f, 6)
        assert np.max(np.abs(c - 1.0)) < 1e-12

    def test_zeta_shift_derivative(self):
        f = parse_symbol("zeta(s + 3)")
        c = taylor_coefficients(f, 1)
        assert abs(c[0] - ZETA_3) < 1e-12
        assert abs(c[1] - ZETA_PRIME_3) < 1e-9

    def test_composition_chain_rule(self):
        # exp(s^2): coefficients 1, 0, 1, 0, 1/2, 0, 1/6
        f = parse_symbol("exp(s^2)")
        c = taylor_coefficients(f, 6)
        assert np.allclose(c, [1, 0, 1, 0, 0.5, 0, 1.0 / 6.0], atol=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            taylor_coefficients(parse_symbol("s"), -1)


class TestCauchyTaylor:
    """Taylor coefficients about any centre on the one ring,
    laurent_coefficients with a nonpositive order."""

    def test_exponential_about_one(self):
        c = laurent_coefficients(parse_symbol("exp(s)"), 1.0, -5, radius=0.5)
        expect = np.array([math.e / math.factorial(k) for k in range(6)])
        assert np.max(np.abs(np.array(c) - expect)) < 1e-12

    def test_plain_callable(self):
        c = laurent_coefficients(lambda z: z ** 2, 3.0, -3, radius=1.0)
        assert np.allclose(c, [9.0, 6.0, 1.0, 0.0], atol=1e-12)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            laurent_coefficients(parse_symbol("s"), 0.0, -2, radius=0.0)

    def test_pole_on_circle_detected(self):
        # the node at angle 0 is the pole s = 1 itself
        with pytest.raises(ArithmeticError, match="not finite"):
            laurent_coefficients(parse_symbol("1/(s - 1)"), 0.0, -2, radius=1.0)


class TestZetaSeries:
    """zeta(s + h)'s Taylor coefficients zeta^(j)(h)/j!, on a ring at 0.8 of
    the disk radius h - 1: each is within its tolerance or the series
    raises.  A ring at half of min(1, h - 1) read c_60 = -33.3 for h = 3."""

    HS = (1.1, 1.5, 2.0, 3.0, 6.0)

    @staticmethod
    def exact(h: float, n: int) -> np.ndarray:
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return np.array([float(mpmath.zeta(h, 1, j) / mpmath.factorial(j))
                             for j in range(n + 1)])

    @pytest.mark.parametrize("h", HS)
    def test_orders_to_24(self, h):
        c = taylor_coefficients(parse_symbol(f"zeta(s + {h})"), 24)
        exact = self.exact(h, 24)
        assert np.max(np.abs(c - exact) / np.abs(exact)) < 1e-10

    @pytest.mark.parametrize("h", HS)
    def test_order_60_settles_or_raises(self, h):
        try:
            c = taylor_coefficients(parse_symbol(f"zeta(s + {h})"), 60)
        except ArithmeticError as exc:
            assert "did not settle under node doubling" in str(exc)
            return
        exact = self.exact(h, 60)
        assert np.max(np.abs(c - exact) / np.abs(exact)) < 1e-8

    def test_ring_radius_and_points(self, monkeypatch):
        # N = 24 at h = 3, as the CLI's residual check asks, settles on
        # 256 points of the circle of radius 1.6
        seen = []
        monkeypatch.setattr(symbols, "zeta", lambda z: seen.append(z) or special_functions.zeta(z))
        taylor_coefficients(parse_symbol("zeta(s + 3)"), 24)
        z = np.concatenate(seen)
        assert z.size == 256 and np.allclose(np.abs(z - 3.0), 1.6, rtol=0, atol=1e-14)


class TestDataSequence:
    def test_explicit_values(self):
        d = DataSequence.from_values([1.0, 2.0, 3.0])
        assert d.term(0) == 1.0
        assert d.term(2) == 3.0
        assert d.term(7) == 0.0

    def test_geometric(self):
        d = DataSequence.geometric(-0.5)
        assert d.term(0) == 1.0
        assert d.term(3) == pytest.approx(-0.125)


class TestRSeries:
    def test_eigen_closed_form(self):
        # d_j = (-1/k)^j makes the series telescope to
        # (f(s) - f(-1/k)) / (s + 1/k); check for f = exp at k = 2
        f = parse_symbol("exp(s)")
        d = DataSequence.geometric(-0.5)
        for s in (0.3, -0.2 + 0.1j, 0.45j):
            got = build_r_series(f, d, s, 60)
            expect = (np.exp(s) - np.exp(-0.5)) / (s + 0.5)
            assert abs(got - expect) < 1e-10

    def test_divergent_data_flagged(self):
        f = parse_symbol("exp(s)")
        with pytest.raises(ArithmeticError):
            build_r_series(f, DataSequence.geometric(2.0), 0.1, 40)

    def test_unsettled_truncation_flagged(self):
        f = parse_symbol("exp(s)")
        with pytest.raises(ArithmeticError):
            build_r_series(f, DataSequence.geometric(-0.5), 0.4, 4)

    def test_outside_taylor_disk_rejected(self):
        # zeta(s + 3) has Taylor radius 2 about the origin, however the
        # tree holding it was built
        for f in (parse_symbol("zeta(s + 3)"), parse_symbol("zeta(s + 3)*s"),
                  AnalyticSymbol(Mul(ZetaNode(3.0), Var("s")))):
            with pytest.raises(ValueError, match="outside the Taylor disk"):
                build_r_series(f, DataSequence.geometric(-0.5), 2.5, 40)

    def test_finite_data_polynomial_symbol(self):
        # f = s^2: r(s) = c_2 * (d_0 s + d_1) with c_2 = 1
        f = parse_symbol("s^2")
        d = DataSequence.from_values([3.0, 5.0])
        got = build_r_series(f, d, 0.25, 12)
        assert abs(got - (3.0 * 0.25 + 5.0)) < 1e-12


@dataclasses.dataclass(frozen=True)
class _DataclassAdd:
    """What the tree nodes were before Record: the reference for its
    equality, hash and repr."""

    left: object
    right: object


class TestRecord:
    """Record, the base of the tree nodes and of the other value types."""

    def test_equality_is_within_one_class(self):
        a, b = Var("s"), Const(1 + 0j)
        assert Add(a, b) == Add(Var("s"), Const(1 + 0j))
        assert Add(a, b) != Sub(a, b) and not Add(a, b) == Sub(a, b)
        assert Const(0j) != 0j and Var("s") != ("s",)

    def test_equal_trees_hash_equal(self):
        f, g = parse_symbol("exp(-s)/(s + 2)^2"), parse_symbol("exp(-s) / (s+2)^2")
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        a, b = Var("s"), Const(2j)
        assert hash(Add(a, b)) == hash((a, b)) and hash(b) == hash((2j,))

    def test_matches_a_frozen_dataclass(self):
        a, b = Var("s"), Const(1.5 + 0j)
        ref = _DataclassAdd(a, b)
        assert repr(Add(a, b)) == repr(ref).replace("_DataclassAdd", "Add")
        assert hash(Add(a, b)) == hash(ref)
        nan = Const(complex(math.nan, 0))
        assert (Add(a, nan) == Add(a, nan)) == (_DataclassAdd(a, nan) == _DataclassAdd(a, nan))

    def test_repr(self):
        assert repr(parse_symbol("s + 1")) == \
            "AnalyticSymbol(expr=Add(left=Var(name='s'), right=Const(value=(1+0j))))"
        assert repr(BromwichConfig()) == "BromwichConfig(sigma=1.0, y_max=200.0, quad_tol=1e-09)"

    def test_frozen(self):
        node, cfg = Add(Var("s"), Const(1j)), BromwichConfig()
        for obj, name in ((node, "left"), (cfg, "sigma"), (cfg, "other")):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(obj, name, 2.0)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(obj, name)
        assert node.left == Var("s") and cfg.sigma == 1.0

    def test_keywords_and_defaults(self):
        assert BromwichConfig.y_max == 200.0 and BromwichConfig.sigma == 1.0
        assert BromwichConfig(y_max=50.0) == BromwichConfig(1.0, 50.0, 1e-9)
        assert BromwichConfig(2.0, quad_tol=1e-6) == BromwichConfig(2.0, 200.0, 1e-6)
        assert Add(right=Const(1j), left=Var("s")) == Add(Var("s"), Const(1j))
        J = Forcing(np.exp, None)
        assert J.breakpoints == () and J == Forcing(j_eval=np.exp)
        with pytest.raises(ValueError, match="y_max"):
            BromwichConfig(y_max=-1.0)
        for args, kwargs in (((), {}), ((Var("s"),), {}), ((Var("s"), Var("s"), Var("s")), {}),
                             ((Var("s"),), {"left": Var("s")}), ((), {"left": Var("s"), "up": 1})):
            with pytest.raises(TypeError, match="takes the fields"):
                Add(*args, **kwargs)

    def test_pole_spec_normalized(self):
        spec = PoleSpec([(-1, 2.0), (-2 + 1j, 1)])
        assert spec.poles == ((-1 + 0j, 2), (-2 + 1j, 1))
        assert [(type(w), type(r)) for w, r in spec.poles] == [(complex, int)] * 2
        assert spec == PoleSpec(((-1 + 0j, 2), (-2 + 1j, 1))) and spec.K == 3
        with pytest.raises(ValueError, match="strictly left"):
            PoleSpec([(0.5, 1)])

    def test_solutions_do_not_share_diagnostics(self):
        f, J, cfg = parse_symbol("s + 1"), forcing_from_text("0"), BromwichConfig()
        first, second = Solution(f, J, None, cfg, None), Solution(f, J, None, cfg, None)
        first.diagnostics["mode"] = "generalized"
        assert second.diagnostics == {} and first.diagnostics is not second.diagnostics
        assert Solution(f, J, None, cfg, None, diagnostics={"a": 1}).diagnostics == {"a": 1}
        first.poles = PoleSpec([(-1, 1)])  # a Solution is mutable, so unhashable
        assert first.poles.K == 1 and first != second
        with pytest.raises(TypeError):
            hash(second)

    def test_deepcopy_of_gate_rows(self):
        # the memo hands each caller a deep copy of the stored rows
        f = parse_symbol("(s + 1)*(s + 2)")
        rows = hypothesis_gates(f, forcing_from_text("exp(-3*t)"), poles=[(-1, 1), (-2, 1)],
                                initial_values=(1.0, 0.0))
        copied = copy.deepcopy(rows)
        assert [row[:3] for row in copied] == [row[:3] for row in rows]
        spec = PoleSpec([(-1, 2)])
        twin = copy.deepcopy((f, spec))
        assert twin == (f, spec) and twin[0] is not f and hash(twin[0]) == hash(f)
        with pytest.raises(AttributeError):
            twin[1].poles = ()
