"""Tests for the one-variable expression parser and its derivative."""

import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdelab.expr import _POW_FAST_PATHS, Expression, ExpressionError, parse_expression


def value(source: str, x: float = 0.0) -> float:
    return parse_expression(source)(x)


class TestValues:
    def test_number_literals(self):
        assert value("3") == 3.0
        assert value("2.5e-1") == 0.25
        assert value(".5") == 0.5
        assert value("1e2") == 100.0

    def test_the_variable(self):
        assert value("x", 2.0) == 2.0
        assert value("x", -1.5) == -1.5

    def test_multiplication_binds_tighter_than_addition(self):
        assert value("1 + 2*3") == 7.0
        assert value("(1 + 2)*3") == 9.0

    def test_division_is_true_division(self):
        assert value("7/2") == 3.5

    def test_subtraction_associates_to_the_left(self):
        assert value("10 - 4 - 3") == 3.0

    def test_power_associates_to_the_right(self):
        assert value("2^3^2") == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert value("-x^2", 3.0) == -9.0

    def test_negative_exponent(self):
        assert value("2^-2") == 0.25

    def test_unary_plus_is_allowed(self):
        assert value("+x - -x", 2.5) == 5.0

    def test_double_well_potential(self):
        U = parse_expression("x^4/4 - x^2/2")
        assert U(1.0) == -0.25
        assert U(-1.0) == -0.25
        assert U(0.0) == 0.0

    def test_whitespace_and_newlines_are_ignored(self):
        assert value("1 +\n  2\t* 3") == 7.0


class TestBroadcasting:
    def test_arrays_evaluate_elementwise(self):
        f = parse_expression("x^2 + 1")
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_array_equal(f(xs), [1.0, 2.0, 5.0])

    def test_scalar_input_returns_a_python_float(self):
        out = parse_expression("x/3")(1.0)
        assert isinstance(out, float)

    def test_matrix_shape_is_preserved(self):
        f = parse_expression("2*x")
        out = f(np.ones((3, 4)))
        assert out.shape == (3, 4)
        assert np.all(out == 2.0)

    def test_constants_broadcast_to_the_input_shape(self):
        f = parse_expression("5")
        assert f(np.zeros(7)).shape == (7,)


class TestCompiledGoldens:
    # Golden values recorded from the tree-walking evaluator that the
    # compiled closures replaced; compared with ``==``.  The power cases
    # pin that constant exponents take numpy's ``pow`` route, not its
    # square / square-root / reciprocal fast paths, which round differently;
    # ``x^3`` and ``-x^3 + x`` are recorded from the product chain (x*x)*x.
    GOLDENS = {
        "x^2": ("69489476c056ee658f0c21cbd6801a238fd7752e9d1432d0ed5288342dc8c689",
                2.8899999999999997),
        "x^0.5": ("049b243d38b7d56ead094b6b5cf8a13008f03843efc1473874b03406ead0519c",
                  1.3038404810405297),
        "x^-1": ("01e8b6baaa61fc8a7aa1bd40be686841cbcb568dc1794b9b2762a1a0f0e2d1be",
                 0.5882352941176471),
        "x^3": ("533896fcf5ec00fbc22fadcbee325892578956a44442e3dcdfbfd25629f91b49",
                4.912999999999999),
        "2^x": ("c2ab57c19314c2f688e7cba84e535fea1c19055cde85df4b5fb9a8bed8240f1e",
                3.249009585424942),
        "3": ("a93cff244bb396ae23a0be2149db33131ed4f7a9bad35aad30ce387acbe50d1a",
              3.0),
        "-x^3 + x": ("65ca14918e9e8dd95017aed5480601c73dfc889e02b3e9235e7e18e754451649",
                     -3.212999999999999),
        "x/(1 + x^2)": ("a24d566971ed30ae2695b8dc0e23a608692770af7993c6a4217d89033a146db4",
                        0.43701799485861187),
    }

    @pytest.mark.parametrize("source", sorted(GOLDENS))
    def test_array_and_scalar_values_match_the_goldens(self, source):
        digest, at_1_7 = self.GOLDENS[source]
        xs = np.random.Generator(np.random.Philox(7)).uniform(0.05, 4.0, 4096)
        out = parse_expression(source)(xs)
        assert out.shape == xs.shape and out.dtype == np.float64
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
        assert parse_expression(source)(1.7) == at_1_7

    def test_scalar_exponents_keep_pow_except_the_fast_paths(self):
        # A constant exponent enters np.power as a Python float unless numpy
        # sends that scalar to a fast path (square, sqrt, reciprocal) that
        # rounds differently from pow; those keep a full array.  The fast
        # paths are derived here, so a numpy that adds or drops one fails.
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, -1.5, -2.0, 1.0]
        rng = np.random.Generator(np.random.Philox(11))
        points = np.concatenate([special, rng.uniform(-10.0, 10.0, 2000),
                                 rng.lognormal(0.0, 3.0, 2000)])
        layouts = (points, points[:8], points[::3], points[:, np.newaxis])
        differ = set()
        with np.errstate(all="ignore"):
            for c in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
                for x in layouts:
                    scalar = np.power(x, c)
                    full = np.power(x, np.full_like(x, c))
                    if not np.array_equal(scalar.view(np.int64), full.view(np.int64)):
                        differ.add(c)
        assert differ == _POW_FAST_PATHS

    @pytest.mark.parametrize("source", sorted(GOLDENS) + ["x^4/4 - x^2/2"])
    def test_scalar_calls_round_as_array_elements(self, source):
        # a 0-d exponent would take numpy's square, sqrt and reciprocal fast
        # paths: a scalar goes in as a one-element array instead
        f = parse_expression(source)
        xs = np.random.Generator(np.random.Philox(7)).uniform(0.05, 4.0, 4096)
        if source == "x^4/4 - x^2/2":
            xs -= 2.0
        scalars = np.array([f(x) for x in xs.tolist()])
        assert np.array_equal(scalars.view(np.int64), f(xs).view(np.int64))

    @pytest.mark.parametrize("source", sorted(GOLDENS))
    def test_zero_dimensional_input_returns_a_float(self, source):
        f = parse_expression(source)
        for x in (np.float64(1.7), np.array(1.7)):
            out = f(x)
            assert type(out) is float
            assert out == self.GOLDENS[source][1]

    @pytest.mark.parametrize("source", sorted(GOLDENS))
    def test_negation_flips_the_sign_bit_for_bit(self, source):
        e = parse_expression(source)
        xs = np.random.Generator(np.random.Philox(7)).uniform(0.05, 4.0, 4096)
        assert np.array_equal((-e)(xs), -(e(xs)))
        assert (-e)(1.7) == -self.GOLDENS[source][1]
        assert (-(-e)).root == e.root

    def test_negating_a_difference_swaps_its_operands(self):
        # -(u - v) is v - u: one ufunc fewer and the same bits, except that
        # an exact zero comes out +0.0 instead of -0.0
        e = parse_expression("x^3 - x")
        negated = -e
        assert negated.root.op == "-" and negated.source == "x-x^3"
        assert (negated.root.left, negated.root.right) == (e.root.right, e.root.left)
        xs = np.random.Generator(np.random.Philox(7)).uniform(-2.0, 2.0, 4096)
        assert np.array_equal(negated(xs), -(e(xs)))
        zero = negated(np.array([1.0]))[0]
        assert zero == 0.0 and not np.signbit(zero)
        assert (-negated).root == e.root


def _ulp(q: Fraction) -> Fraction:
    """The spacing of doubles at the exact nonzero value ``q``."""
    q = abs(q)
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if Fraction(2) ** e > q:
        e -= 1
    return Fraction(2) ** (e - 52)


class TestIntegerPowers:
    # x^n by right-to-left binary exponentiation, each product written out
    CHAINS = {
        3: lambda x: (x * x) * x,
        4: lambda x: (x * x) * (x * x),
        5: lambda x: ((x * x) * (x * x)) * x,
        6: lambda x: (x * x) * ((x * x) * (x * x)),
        7: lambda x: ((x * x) * x) * ((x * x) * (x * x)),
        8: lambda x: ((x * x) * (x * x)) * ((x * x) * (x * x)),
    }
    POINTS = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-200, -1e200],
        np.random.Generator(np.random.Philox(13)).uniform(-3.0, 3.0, 400)])

    @pytest.mark.parametrize("n", sorted(CHAINS))
    def test_small_integer_powers_are_the_product_chain_bit_for_bit(self, n):
        chain = self.CHAINS[n]
        with np.errstate(all="ignore"):
            for source, base in ((f"x^{n}", self.POINTS),
                                 (f"(x + 1)^{n}", self.POINTS + 1.0)):
                f = parse_expression(source)
                for x, b in ((self.POINTS, base),
                             (self.POINTS[::3, np.newaxis], base[::3, np.newaxis])):
                    assert np.array_equal(f(x).view(np.int64), chain(b).view(np.int64))
        f = parse_expression(f"x^{n}")
        for x in (-1.7, 0.3, 2.9):
            for arg in (x, np.float64(x), np.array(x)):
                out = f(arg)
                assert type(out) is float and out == chain(x)

    @pytest.mark.parametrize("n", sorted(CHAINS))
    def test_small_integer_powers_are_within_n_minus_1_ulp(self, n):
        # a product of n factors carries at most n - 1 roundings (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2002, section 3.1)
        xs = self.POINTS[9:]
        out = parse_expression(f"x^{n}")(xs)
        for x, y in zip(xs.tolist(), out.tolist()):
            exact = Fraction(x) ** n
            assert abs(Fraction(y) - exact) <= (n - 1) * _ulp(exact), (x, n)

    @pytest.mark.parametrize("c", [2.0, 2.5, 9.0, -3.0])
    def test_other_constant_exponents_keep_pow_bit_for_bit(self, c):
        with np.errstate(all="ignore"):
            out = parse_expression(f"x^{c:g}")(self.POINTS)
            # a full exponent array keeps pow's rounding for every exponent
            expected = np.power(self.POINTS, np.full_like(self.POINTS, c))
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


class TestOnFloats:
    # sources whose compiled function calls no numpy function; it also runs
    # on Python floats, where it must round as on array elements
    SOURCES = ["x^3", "-x^3 + x", "x - x^3", "-(x - 2)/(x*x + 3)", "2*-x - -x/7",
               "((x*x + 1)^3 - 2)^7", "x^8 - x^6 + x^4 - (x - 1)^7 + 1e300*x*x"]
    SOURCES += [f"x^{n}" for n in range(3, 9)] + [f"(x + 1)^{n}" for n in range(3, 9)]

    @pytest.mark.parametrize("source", SOURCES)
    def test_the_compiled_function_on_floats_matches_arrays(self, source):
        f = parse_expression(source)
        assert f._on_floats is not None
        with np.errstate(all="ignore"):
            arrays = f(TestIntegerPowers.POINTS)
        floats = np.array([f._on_floats(x) for x in TestIntegerPowers.POINTS.tolist()])
        # IEEE 754 leaves open which NaN operand a result carries, so a NaN's
        # sign may differ; every other value must be the same bits
        nan = np.isnan(arrays)
        assert np.array_equal(np.isnan(floats), nan)
        assert np.array_equal(floats[~nan].view(np.int64), arrays[~nan].view(np.int64))

    @pytest.mark.parametrize("source", ["x^2", "x^0.5", "2^x", "3", "x/(1 + x^2)"])
    def test_numpy_calls_keep_the_function_off_floats(self, source):
        assert parse_expression(source)._on_floats is None

    def test_folded_constants_keep_their_bits(self):
        # constants are bound by name, so inf, nan and -0.0 need no literal
        assert np.signbit(parse_expression("-0")(np.ones(2))).all()
        assert parse_expression("x + 1e308*10")(-1.0) == math.inf
        assert math.isnan(parse_expression("x - (1e308*10 - 1e308*10)")(1.0))


class TestErrors:
    def test_empty_expression(self):
        with pytest.raises(ExpressionError, match="empty expression"):
            parse_expression("   ")

    def test_truncated_input_reports_the_position(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("x + ")
        assert "end of input" in str(info.value)
        assert info.value.line == 1
        assert info.value.column == 5

    def test_unknown_name_is_spelled_out(self):
        with pytest.raises(ExpressionError, match="unknown name 'y'"):
            parse_expression("y + 1")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionError, match=r"expected '\)'"):
            parse_expression("(x + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError, match="unexpected"):
            parse_expression("1 2")

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError, match="unexpected character"):
            parse_expression("x $ 2")

    def test_error_carries_multiline_position(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("1 +\n  * 2")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_message_format_names_line_and_column(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("q")
        assert str(info.value).endswith("at line 1, column 1")

    def test_expression_error_is_a_value_error(self):
        assert issubclass(ExpressionError, ValueError)


class TestDerivative:
    def test_polynomial_derivative_is_exact(self):
        d = parse_expression("x^4/4 - x^2/2").derivative()
        xs = np.linspace(-2.0, 2.0, 17)
        np.testing.assert_array_equal(d(xs), xs**3 - xs)

    def test_product_rule(self):
        d = parse_expression("(x - 1)*(x + 1)").derivative()
        assert d(3.0) == 6.0

    def test_quotient_rule(self):
        d = parse_expression("1/x").derivative()
        assert d(2.0) == pytest.approx(-0.25, rel=1e-15)

    def test_chain_rule_through_a_power(self):
        d = parse_expression("(x^2 + 1)^3").derivative()
        x = 1.5
        assert d(x) == pytest.approx(3 * (x**2 + 1) ** 2 * 2 * x, rel=1e-15)

    def test_constant_expressions_have_zero_derivative(self):
        assert parse_expression("2^3 + 1").derivative()(5.0) == 0.0

    def test_second_derivative(self):
        d2 = parse_expression("x^4/4").derivative().derivative()
        assert d2(2.0) == 12.0

    def test_rendered_source_reparses_to_the_same_function(self):
        d = parse_expression("x^4/4 - x^2/2").derivative()
        again = parse_expression(d.source)
        xs = np.linspace(-3.0, 3.0, 11)
        np.testing.assert_array_equal(again(xs), d(xs))

    def test_constant_factors_fold_through_products_and_quotients(self):
        assert parse_expression("x^2/2").derivative().source == "x"
        assert parse_expression("x^4/4 - x^2/2").derivative().source == "x^3-x"

    def test_negated_power_derivative(self):
        d = parse_expression("-x^3").derivative()
        assert d(2.0) == -12.0

    def test_variable_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            parse_expression("x^x").derivative()

    def test_derivative_is_an_expression(self):
        d = parse_expression("x^2").derivative()
        assert isinstance(d, Expression)
        assert isinstance(d.source, str) and d.source

    @given(st.lists(st.integers(min_value=-9, max_value=9),
                    min_size=1, max_size=5))
    def test_polynomial_derivatives_match_the_power_rule(self, coeffs):
        source = " + ".join(f"{c}*x^{k}" for k, c in enumerate(coeffs))
        d = parse_expression(source).derivative()
        xs = np.linspace(-1.5, 1.5, 7)
        expected = sum(k * c * xs ** (k - 1) for k, c in enumerate(coeffs) if k)
        np.testing.assert_allclose(d(xs), expected, atol=1e-12)


class TestRepr:
    def test_repr_shows_the_source(self):
        assert repr(parse_expression("x + 1")) == "Expression('x + 1')"

    def test_round_trips_through_pickle(self):
        f = parse_expression("x^4/4 - x^2/2")
        g = pickle.loads(pickle.dumps(f))
        assert g == f and hash(g) == hash(f)
        assert g(1.7) == f(1.7)
