import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcut import (DomainError, FormatError, Interval, PeriodicPWL,
                      check_slope_census, common_refinement, gmi,
                      linear_combine, pi_k, pi_k_reflected, rat, rat_str)
import groupcut.pwl as pwl
from groupcut.pwl import pieces_in
from conftest import formula_slope

ZIGZAG = PeriodicPWL([F(0), F(1, 4), F(1, 2)], [F(0), F(1), F(1, 2)])


def test_rat_parses_integers_and_fractions():
    assert rat("3/4") == F(3, 4)
    assert rat("2") == F(2)
    assert rat(F(1, 3)) == F(1, 3)
    assert rat(5) == F(5)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", ".25", "1/0", "a/b", 0.5, None])
def test_rat_rejects_non_rationals(bad):
    with pytest.raises((FormatError, ZeroDivisionError)):
        rat(bad)


@pytest.mark.parametrize("flag", [True, False])
def test_rat_rejects_booleans(flag):
    with pytest.raises(FormatError):
        rat(flag)


def _rat_by_regex(s):
    """rat on a string as it reads every string through Fraction(str)."""
    if "." in s or "e" in s.lower():
        raise FormatError(f"expected exact rational 'p/q', got {s!r}")
    try:
        return F(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational: {s!r}") from exc


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789/-+_.e \u0663", max_size=9))
@example("-0/007")
@example("12/-5")
@example("1/0")
@example("--3")
@example("-")
@example("4/")
@example("/4")
@example("\u0663/4")
@example("9" * 5000)
def test_rat_reads_strings_as_fraction_does(s):
    try:
        want = _rat_by_regex(s)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            rat(s)
        assert str(got.value) == str(exc)
    else:
        got = rat(s)
        assert type(got) is F and got == want


def test_rat_str_round_trips():
    for v in (F(0), F(3, 4), F(-7, 3), F(5)):
        assert rat(rat_str(v)) == v


def test_interval_validation_and_queries():
    I = Interval(F(1, 4), F(1, 2))
    assert I.length == F(1, 4)
    assert not I.degenerate
    assert I.contains(F(1, 3))
    assert not I.contains(F(3, 4))
    assert I.contains_interval(Interval(F(1, 4), F(1, 3)))
    assert Interval(F(1, 3), F(1, 3)).degenerate
    with pytest.raises(DomainError):
        Interval(F(1, 2), F(1, 4))


def test_constructor_validates_breakpoints():
    bad = (DomainError, FormatError)
    with pytest.raises(bad):
        PeriodicPWL([], [])
    with pytest.raises(bad):
        PeriodicPWL([F(1, 4)], [F(0)])                      # must start at 0
    with pytest.raises(bad):
        PeriodicPWL([F(0), F(0)], [F(0), F(1)])             # strictly increasing
    with pytest.raises(bad):
        PeriodicPWL([F(0), F(1)], [F(0), F(1)])             # all < 1
    with pytest.raises(bad):
        PeriodicPWL([F(0), F(1, 2)], [F(0)])                # length mismatch


def test_constructor_reads_ints_as_fractions():
    f = PeriodicPWL([0], [0])
    assert f.slopes() == frozenset({F(0)})
    assert all(type(t) is F for t in (*f.breakpoints, *f.values, *f.slopes()))
    assert check_slope_census(f, 2, F(1, 2)).witness["actual"] == ["0"]


@pytest.mark.parametrize("bps, vals", [
    ([0], [0.0]), ([0.0], [0]), ([0, F(1, 2)], [0, 0.5]), ([0], [False])])
def test_constructor_rejects_floats_and_booleans(bps, vals):
    with pytest.raises(FormatError):
        PeriodicPWL(bps, vals)


def test_eval_at_breakpoints_and_interiors():
    assert ZIGZAG.eval(F(0)) == 0
    assert ZIGZAG.eval(F(1, 4)) == 1
    assert ZIGZAG.eval(F(1, 8)) == F(1, 2)
    assert ZIGZAG.eval(F(3, 8)) == F(3, 4)
    # last piece wraps to value-at-0
    assert ZIGZAG.eval(F(3, 4)) == F(1, 4)


def test_eval_is_periodic():
    for x in (F(1, 8), F(5, 7), F(0)):
        assert ZIGZAG.eval(x + 3) == ZIGZAG.eval(x)
        assert ZIGZAG.eval(x - 2) == ZIGZAG.eval(x)


def test_piece_slopes_including_wrap():
    assert ZIGZAG.piece_slope(0) == 4
    assert ZIGZAG.piece_slope(1) == -2
    assert ZIGZAG.piece_slope(2) == -1
    assert ZIGZAG.slopes() == frozenset({F(4), F(-2), F(-1)})


@pytest.mark.parametrize("f", [ZIGZAG, PeriodicPWL([F(0)], [F(0)])])
def test_piece_slope_rejects_indices_outside_the_pieces(f):
    n = len(f.breakpoints)
    for i in (-1, -n, n):
        with pytest.raises(IndexError):
            f.piece_slope(i)
    assert f.piece_slope(n - 1) == formula_slope(f, n - 1)


def test_wrap_piece_slope_is_not_the_chord_from_0():
    p = pi_k(3, F(1, 2))
    with pytest.raises(IndexError):
        p.piece_slope(-1)      # was 2, the chord from 0 to the last breakpoint
    assert p.piece_slope(len(p.breakpoints) - 1) == -2     # -1/(1 - b)
    assert p.eval(F(3, 4)) == F(1, 2)


def _random_pwl(rng):
    bps = sorted({F(0)} | {F(rng.randrange(1, 12), 12) for _ in range(rng.randrange(6))})
    return PeriodicPWL(bps, [F(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in bps])


# gmi, pi_k, its reflection, random functions, collinear points that canonical
# merges (inside the period, and into the wrap piece) and one-piece functions
SLOPE_CASES = [
    gmi(F(1, 2)), gmi(F(2, 7)), pi_k(5, F(1, 3)), pi_k(8, F(2, 5)),
    pi_k_reflected(6, F(3, 5)), ZIGZAG,
    PeriodicPWL([F(0), F(1, 8), F(1, 4), F(1, 2)], [F(0), F(1, 2), F(1), F(1, 2)]),
    PeriodicPWL([F(0), F(1, 2), F(3, 4)], [F(0), F(1), F(1, 2)]),
    PeriodicPWL([F(0), F(1, 3), F(2, 3)], [F(1, 2)] * 3),
    PeriodicPWL([F(0)], [F(3, 4)]),
    *(_random_pwl(random.Random(seed)) for seed in range(12)),
]


@pytest.mark.parametrize("f", SLOPE_CASES)
def test_piece_slope_memo_matches_the_formula(f):
    bps, vals = f.breakpoints, f.values
    ends = [*bps[1:], 1]
    want = [formula_slope(f, i) for i in range(len(bps))]

    def check_eval(g):
        for i, (t, v, s) in enumerate(zip(bps, vals, want)):
            x = (t + ends[i]) / 2
            assert g.eval(x) == v + s * (x - t)

    eval_first, slopes_first = PeriodicPWL(bps, vals), PeriodicPWL(bps, vals)
    check_eval(eval_first)
    assert eval_first.slopes() == frozenset(want)
    assert slopes_first.slopes() == frozenset(want)
    check_eval(slopes_first)
    for g in (eval_first, slopes_first, f.canonical(),
              PeriodicPWL.from_points(zip(bps, vals))):
        assert [g.piece_slope(i) for i in range(len(g.breakpoints))] == [
            formula_slope(g, i) for i in range(len(g.breakpoints))]
        assert g == f and hash(g) == hash(f)
        for name in ("breakpoints", "P", "W"):
            with pytest.raises(AttributeError):
                setattr(g, name, ())


def test_a_function_is_its_four_ints():
    assert PeriodicPWL.__slots__ == ("q", "P", "D", "W")
    f = PeriodicPWL(ZIGZAG.breakpoints, ZIGZAG.values)
    assert (f.q, f.P, f.D, f.W) == (4, (0, 1, 2), 2, (0, 2, 1))
    assert f.breakpoints is not f.breakpoints     # a view made on each read
    with pytest.raises(AttributeError):
        f.__dict__


def _eval_by_views(f, x):
    """f(x) as v_i + s_i (x - t_i), in Fractions from f's views."""
    bps, vals = f.breakpoints, f.values
    y = x % 1
    i = max(j for j, t in enumerate(bps) if t <= y)
    return vals[i] + f.piece_slope(i) * (y - bps[i])


def test_eval_on_ints_matches_the_views():
    rng = random.Random(28)
    for _ in range(300):
        f = _random_pwl(rng)
        bps = f.breakpoints
        xs = [F(rng.randrange(-99, 0), rng.randrange(1, 30)),       # x < 0
              F(rng.randrange(31, 99), rng.randrange(1, 30)),        # x > 1
              rng.choice(bps) + rng.randrange(-3, 4),                # a breakpoint
              (bps[-1] + 1) / 2,                                     # the wrap piece
              bps[-1] + F(1, 7 * f.q) - 2,
              F(rng.randrange(-50, 50), 11 * 13 * 17)]               # coprime to q
        for x in xs:
            assert f.eval(x) == _eval_by_views(f, x), (f, x)
            assert f(str(x)) == f.eval(x)
        assert f.eval(bps[-1]) == f.values[-1] and f.eval(1) == f.values[0]


def test_canonical_merges_collinear_breakpoints():
    redundant = PeriodicPWL([F(0), F(1, 8), F(1, 4), F(1, 2)],
                            [F(0), F(1, 2), F(1), F(1, 2)])
    assert redundant.canonical() == ZIGZAG
    assert redundant == ZIGZAG           # equality is canonical-form equality
    assert hash(redundant) == hash(ZIGZAG)


def test_canonical_collapses_constant():
    const = PeriodicPWL([F(0), F(1, 3), F(2, 3)], [F(1, 2)] * 3)
    assert len(const.canonical().breakpoints) == 1


def test_from_points_normalizes_and_rejects_conflicts():
    f = PeriodicPWL.from_points([(F(0), F(0)), (F(5, 4), F(1))])
    assert f.breakpoints == (F(0), F(1, 4))
    with pytest.raises((DomainError, FormatError)):
        PeriodicPWL.from_points([(F(0), F(0)), (F(1), F(1))])   # 1 ≡ 0, conflict
    with pytest.raises((DomainError, FormatError)):
        PeriodicPWL.from_points([(F(1, 4), F(1))])              # no value at 0


def test_delta_slack():
    assert ZIGZAG.delta(F(1, 8), F(1, 8)) == F(1, 2) + F(1, 2) - F(1)
    assert ZIGZAG.delta(F(1, 4), F(3, 4)) == F(1) + F(1, 4) - F(0)


def test_reflect_is_involutive_and_correct():
    r = ZIGZAG.reflect()
    for x in (F(0), F(1, 8), F(1, 4), F(2, 3)):
        assert r.eval((-x) % 1) == ZIGZAG.eval(x)
    assert r.reflect() == ZIGZAG


def test_common_refinement_preserves_values():
    g = PeriodicPWL([F(0), F(1, 3)], [F(0), F(1, 2)])
    rf, rg = common_refinement(ZIGZAG, g)
    assert rf.breakpoints == rg.breakpoints
    for t in rf.breakpoints:
        assert rf.eval(t) == ZIGZAG.eval(t)
        assert rg.eval(t) == g.eval(t)


def test_linear_combine():
    h = linear_combine(F(1, 2), ZIGZAG, F(1, 2), ZIGZAG)
    assert h == ZIGZAG
    z = linear_combine(F(1), ZIGZAG, F(-1), ZIGZAG)
    assert z.slopes() == frozenset({F(0)})


def _sorted_points(elements, zero):
    """Sorted distinct points that hold `zero`, like breakpoints in [0, 1)
    or lattice numerators in [0, q)."""
    return st.sets(elements, max_size=6).map(lambda s: sorted(s | {zero}))


FRACTION_POINTS = _sorted_points(
    st.fractions(0, 1, max_denominator=12).map(lambda t: t % 1), F(0))


@st.composite
def periodic_windows(draw):
    """(points, period, lo, hi) with lo, hi in [-3, 4] periods: windows that
    start below 0, end past one period, are degenerate or even reversed.
    Int points get int ends or rational ones off the lattice."""
    if draw(st.booleans()):
        period = draw(st.integers(min_value=1, max_value=40))
        points = draw(_sorted_points(st.integers(0, period - 1), 0))
        coord = st.integers(-3 * period, 4 * period)
        if draw(st.booleans()):
            coord = st.one_of(coord, st.fractions(-3 * period, 4 * period,
                                                  max_denominator=7))
    else:
        period = 1
        points = draw(FRACTION_POINTS)
        coord = st.fractions(-3, 4, max_denominator=24)
    lo = draw(coord)
    hi = draw(st.one_of(coord, st.just(lo)))
    if draw(st.booleans()):     # a degenerate window on a shifted point
        lo = hi = draw(st.sampled_from(points)) + draw(st.integers(-3, 3)) * period
    return points, period, lo, hi


@settings(max_examples=200, deadline=None)
@given(periodic_windows())
def test_pieces_in_matches_a_walk_over_shifted_pieces(window):
    assert list(pieces_in(ZIGZAG.breakpoints, 1, F(3, 8), F(5, 4))) == [
        (1, F(3, 8), F(1, 2)), (2, F(1, 2), F(1)), (0, F(1), F(5, 4))]
    points, period, lo, hi = window
    ends = [*points[1:], period]
    want = sorted((max(a, lo), j, min(c, hi))
                  for m in range(-4, 6)
                  for j, (a, c) in enumerate(zip(points, ends))
                  for a, c in [(a + m * period, c + m * period)]
                  if max(a, lo) < min(c, hi))
    got = list(pieces_in(points, period, lo, hi))
    assert got == [(j, a, c) for a, j, c in want]
    if all(type(t) is int for t in (*points, lo, hi)):
        assert all(type(a) is type(c) is int for _, a, c in got)


def test_pieces_in_splits_a_sum_window_at_the_period():
    # lattice pieces [0, 4], [4, 8], [8, 12], [12, 16] with period 16, the
    # sums of two windows in [0, 16]: inside the period, wholly past it,
    # and straddling it
    grid = [0, 4, 8, 12]
    assert list(pieces_in(grid, 16, 0, 4)) == [(0, 0, 4)]
    assert list(pieces_in(grid, 16, 28, 32)) == [(3, 28, 32)]
    assert list(pieces_in(grid, 16, 15, 19)) == [(3, 15, 16), (0, 16, 19)]


def test_json_round_trip_and_schema_errors():
    blob = ZIGZAG.to_json()
    assert PeriodicPWL.from_json(blob) == ZIGZAG
    assert PeriodicPWL.from_json(blob).to_json() == blob
    with pytest.raises(FormatError):
        PeriodicPWL.from_json('{"breakpoints": ["0"]}')
    with pytest.raises(FormatError):
        PeriodicPWL.from_json('{"breakpoints": ["0"], "values": ["0.5"]}')
    with pytest.raises(FormatError):
        PeriodicPWL.from_json('[1,2]')


def test_from_dict_reads_each_coordinate_once(monkeypatch):
    # from_dict checks the JSON shape only; __init__ reads each coordinate
    # into an int pair and validates
    d = pi_k(5, F(1, 3)).to_dict()
    calls, real = [], pwl._pair
    monkeypatch.setattr(pwl, "_pair", lambda x: calls.append(x) or real(x))
    f = PeriodicPWL.from_dict(d)
    assert calls == d["breakpoints"] + d["values"]
    assert f.to_dict() == d


@pytest.mark.parametrize("bps, message", [
    (["-1/2"], "breakpoint 0 must be present (and first)"),
    (["-1/2", "0"], "breakpoint 0 must be present (and first)"),
    (["0", "-1/2"], "breakpoints must be strictly increasing"),
    (["0", "1"], "breakpoint 1 outside [0, 1)"),
    (["0", "1/2", "3/2"], "breakpoint 3/2 outside [0, 1)"),
    (["0", "2", "1/2"], "breakpoints must be strictly increasing"),
])
def test_from_dict_names_a_breakpoint_outside_the_period(bps, message):
    with pytest.raises(FormatError) as exc:
        PeriodicPWL.from_dict({"breakpoints": bps, "values": ["0"] * len(bps)})
    assert str(exc.value) == message


@st.composite
def pwl_functions(draw):
    q = draw(st.integers(min_value=2, max_value=12))
    ks = draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                       min_size=0, max_size=4, unique=True))
    bps = [F(0)] + sorted(F(k, q) for k in ks)
    vals = [F(draw(st.integers(min_value=-4, max_value=4)), 4) for _ in bps]
    return PeriodicPWL(bps, vals)


@settings(max_examples=60, deadline=None)
@given(pwl_functions(), st.integers(min_value=0, max_value=95),
       st.integers(min_value=1, max_value=97))
def test_eval_interpolates_between_breakpoints(f, num, den):
    x = F(num, den) % 1
    pts = list(f.breakpoints) + [F(1)]
    vals = list(f.values) + [f.values[0]]
    for lo, hi, vlo, vhi in zip(pts, pts[1:], vals, vals[1:]):
        if lo <= x <= hi:
            lam = (x - lo) / (hi - lo) if hi != lo else F(0)
            assert f.eval(x) == vlo + lam * (vhi - vlo)
            break


@settings(max_examples=40, deadline=None)
@given(pwl_functions())
def test_canonical_is_pointwise_equal(f):
    g = f.canonical()
    for i in range(17):
        x = F(i, 17)
        assert f.eval(x) == g.eval(x)
