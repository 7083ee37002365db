import random
from fractions import Fraction as F

import pytest

from groupcut import (DomainError, FormatError, MergedFn, NotMinimal,
                      PeriodicPWL, check_lift_nondecreasing, check_minimal,
                      eval_merged, gmi, phi_m, pi_k, pi_k_reflected, pi_n_k,
                      sample_subadditivity_nd, seqmerge)
from groupcut.cli import MAX_LEVEL
from groupcut.verification import _Lattice
import oracles
from oracles import (check_genuinely_nd, eval_definitional, group_space_eval,
                     lift_eval, psi_eval, region_gradients)


def rand_fracs(rng, n, maxq=60):
    return [F(rng.randint(-2 * q, 2 * q), q)
            for q in (rng.randint(2, maxq) for _ in range(n))]


def test_lift_eval_examples():
    g = gmi(F(1, 2))
    assert lift_eval(g, F(1, 2), F(1, 4)) == 0
    assert lift_eval(g, F(1, 2), F(0)) == 0
    assert lift_eval(g, F(1, 2), F(1)) == 1
    # pseudo-periodicity
    for x in (F(1, 7), F(5, 3)):
        assert lift_eval(g, F(1, 2), x + 1) == lift_eval(g, F(1, 2), x) + 1


def test_group_space_inverts_the_lift():
    g = gmi(F(1, 2))
    psi = lambda v: lift_eval(g, F(1, 2), v[0])
    assert group_space_eval(psi, [F(1, 2)], [F(1, 4)]) == g.eval(F(1, 4))


def test_lift_round_trip_at_random_points():
    rng = random.Random(42)
    P = pi_n_k(2, 3, F(1, 2))
    bs = P.b_vector
    for _ in range(100):
        x = rand_fracs(rng, 2)
        inv = group_space_eval(lambda v: psi_eval(P, list(v)), bs, x)
        relift = sum(x) - sum(bs) * inv
        assert relift == psi_eval(P, x)


def test_merged_arity_and_b_vector():
    P = pi_n_k(3, 4, F(1, 2))
    assert P.arity == 3
    assert P.b_vector == [F(1, 2)] * 3
    assert phi_m(1, F(1, 2)).arity == 1


def test_phi_m_examples():
    assert phi_m(1, F(2, 3)).nodes == ((gmi(F(2, 3)), F(2, 3)),)
    assert eval_merged(phi_m(2, F(1, 2)), [F(1, 4), F(1, 4)]) == F(1, 2)
    assert eval_merged(phi_m(3, F(1, 2)), [F(0), F(0), F(0)]) == 0
    assert eval_merged(phi_m(3, F(1, 2)), [F(1), F(0), F(2)]) == 0
    with pytest.raises(DomainError):
        phi_m(2, F(1, 3))
    with pytest.raises(DomainError):
        phi_m(0, F(1, 2))


def test_affine_region_formula():
    rng = random.Random(5)
    for m in (2, 3):
        b = F(1, 2)
        Phi = phi_m(m, b)
        for _ in range(25):
            x = [F(rng.randint(1, 15), 32) for _ in range(m)]
            assert all(0 < v < b for v in x)
            assert eval_merged(Phi, x) == sum(x) / (m * b)


def test_pi_n_k_coincides_with_phi_for_k2():
    A, B = pi_n_k(2, 2, F(1, 2)), phi_m(2, F(1, 2))
    rng = random.Random(9)
    for _ in range(30):
        x = rand_fracs(rng, 2)
        assert eval_merged(A, x) == eval_merged(B, x)


def test_closed_formula_matches_definitional_path():
    rng = random.Random(2026)
    funcs = [phi_m(2, F(1, 2)), phi_m(3, F(2, 3)), pi_n_k(2, 4, F(1, 2)),
             pi_n_k(3, 3, F(1, 2))]
    for Fn in funcs:
        for _ in range(40):
            x = rand_fracs(rng, Fn.arity)
            assert eval_merged(Fn, x) == eval_definitional(Fn, x)


# coordinates as eval reads them from --x: unreduced and signed text, and
# integers with and without a denominator
TEXT_COORDS = ["2/4", "-6/8", "0/5", "7", "-7", "3/9", "-10/4", "12/16", "-1/3"]


def test_int_pair_coordinates_match_the_definitional_path():
    rng = random.Random(33)
    mixed = [MergedFn(((gmi(F(1, 2)), F(1, 2)),
                       (pi_k_reflected(3, F(2, 3)), F(2, 3)),
                       (gmi(F(3, 5)), F(3, 5)),
                       (pi_k(3, F(2, 5)), F(2, 5)),
                       (gmi(F(5, 7)), F(5, 7)))),
             MergedFn(((gmi(F(2, 3)), F(2, 3)), (gmi(F(1, 2)), F(1, 2)),
                       (gmi(F(2, 3)), F(2, 3))))]
    for Fn in [phi_m(1, F(1, 2)), phi_m(3, F(2, 3)), pi_n_k(2, 4, F(1, 2)),
               pi_n_k(4, 3, F(3, 5)), *mixed]:
        for _ in range(30):
            text = [rng.choice(TEXT_COORDS) for _ in range(Fn.arity)]
            want = eval_definitional(Fn, text)
            assert eval_merged(Fn, text) == want
            assert eval_merged(Fn, [F(t) for t in text]) == want
            x = rand_fracs(rng, Fn.arity)
            assert eval_merged(Fn, x) == eval_definitional(Fn, x)
            assert eval_merged(Fn, [str(v) for v in x]) == eval_merged(Fn, x)


def test_mass_is_the_sum_of_the_parameters():
    bs = [F(1, 2), F(2, 3), F(3, 5), F(5, 7)]
    rng = random.Random(5)
    chains = [[b] for b in bs] + [bs, bs[::-1], bs * 2]
    chains += [[rng.choice(bs) for _ in range(rng.randint(2, 6))] for _ in range(10)]
    for chain in chains:
        Fn = MergedFn(tuple((gmi(b), b) for b in chain))
        assert Fn._mass == sum(chain) and type(Fn._mass) is F


def test_closed_formula_at_integers_and_breakpoints():
    rng = random.Random(19)
    for Fn in (phi_m(3, F(2, 3)), pi_n_k(3, 5, F(1, 2)), pi_n_k(4, 3, F(3, 5))):
        for _ in range(10):
            z = [F(rng.randint(-3, 3)) for _ in range(Fn.arity)]
            assert eval_merged(Fn, z) == 0 == eval_definitional(Fn, z)
        # x_i is chosen from the last node out so that s - h, the argument
        # of f_i, is a breakpoint of f_i shifted by an integer
        for _ in range(10):
            x = []
            for i in reversed(range(Fn.arity)):
                f, _ = Fn.nodes[i]
                h = 0
                if x:
                    inner = MergedFn(Fn.nodes[i + 1:])
                    h = sum(inner.b_vector) * eval_definitional(inner, x)
                t = rng.choice(f.breakpoints) + rng.randint(-2, 2)
                x.insert(0, t - sum(x) + h)
            assert eval_merged(Fn, x) == eval_definitional(Fn, x)


def test_closed_formula_at_the_cli_caps():
    P = pi_n_k(MAX_LEVEL, MAX_LEVEL, F(2, 3))
    rng = random.Random(64)
    for _ in range(5):
        x = rand_fracs(rng, P.arity, maxq=64)
        assert eval_merged(P, x) == eval_definitional(P, x)


def test_scaled_at_matches_pwl_eval():
    rng = random.Random(23)
    for f, b in ((gmi(F(3, 5)), F(3, 5)), (pi_k(4, F(1, 3)), F(1, 3)),
                 (pi_k_reflected(5, F(2, 3)), F(2, 3))):
        lat = _Lattice(f, b.denominator)
        q = lat.q

        def agrees(n, d):
            return lat.scaled_at(n, d) == lat.scale * d * f.eval(F(n, d))

        for p in lat.points:
            for d in (1, 7, 1000 * q):
                for shift in (-2, 0, 1):        # shift < 0: negative n
                    # the breakpoint (p + shift*q)/q, written as n/(q*d),
                    # and 1/(q*d) to either side of it
                    n = (p + shift * q) * d
                    assert all(agrees(n + e, q * d) for e in (-1, 0, 1))
        for _ in range(200):
            d = rng.choice((2, 9, q, 97 * q ** 2))
            n = rng.randint(-5 * d, 5 * d)
            g = rng.randint(2, 6)               # gcd(g*n, g*d) > 1
            assert agrees(n, d) and agrees(g * n, g * d)


def test_evaluation_paths_are_independent(monkeypatch):
    # the closed formula and the nested lifts agree on every chain, so only
    # a fault planted in one path shows that neither calls the other
    P = pi_n_k(3, 3, F(1, 2))
    x = [F(1, 5), F(2, 7), F(-3, 4)]
    closed, definitional = eval_merged(P, x), eval_definitional(P, x)
    monkeypatch.setattr(oracles, "psi_eval", lambda Fn, v: psi_eval(Fn, v) + 1)
    assert eval_merged(P, x) == closed
    assert eval_definitional(P, x) == definitional - F(1) / sum(P.b_vector)


def test_the_nested_lifts_do_not_read_the_lattice(monkeypatch):
    # the other direction: a fault planted in the integer kernel moves the
    # closed formula and leaves the definitional path alone
    P = pi_n_k(3, 3, F(1, 2))
    x = [F(1, 5), F(2, 7), F(-3, 4)]
    closed, definitional = eval_merged(P, x), eval_definitional(P, x)
    scaled_at = _Lattice.scaled_at
    monkeypatch.setattr(_Lattice, "scaled_at",
                        lambda lat, n, d: scaled_at(lat, n, d) + 1)
    assert eval_merged(P, x) != closed
    assert eval_definitional(P, x) == definitional


def test_merged_function_is_lattice_periodic():
    rng = random.Random(11)
    P = pi_n_k(2, 3, F(1, 2))
    for _ in range(25):
        x = rand_fracs(rng, 2)
        z = [F(rng.randint(-3, 3)) for _ in range(2)]
        assert eval_merged(P, [a + c for a, c in zip(x, z)]) == eval_merged(P, x)


def test_psi_is_pseudo_periodic():
    rng = random.Random(13)
    P = pi_n_k(3, 3, F(1, 2))
    for _ in range(20):
        x = rand_fracs(rng, 3)
        for i in range(3):
            e = [F(1) if j == i else F(0) for j in range(3)]
            assert psi_eval(P, [a + c for a, c in zip(x, e)]) == psi_eval(P, x) + 1


def _nested(nodes):
    """The JSON tree of a chain, built without the checking constructor."""
    (f, b), *outers = reversed(nodes)
    obj = {"kind": "leaf", "b": str(b), "fn": f.to_dict()}
    for f, b in outers:
        obj = {"kind": "merge", "b1": str(b), "outer": f.to_dict(), "inner": obj}
    return obj


def test_every_node_of_a_chain_is_checked():
    good = (gmi(F(1, 2)), F(1, 2))
    for bad, message in (((gmi(F(1, 3)), F(1, 2)), "not minimal"),
                         ((gmi(F(1, 2)), F(0)), "must lie in"),
                         ((gmi(F(1, 2)), F(3, 2)), "must lie in")):
        for nodes in ((bad,), (bad, good), (good, bad), (good, bad, good),
                      (good, good, bad)):
            with pytest.raises(DomainError, match=message):
                MergedFn(nodes)
            with pytest.raises(DomainError, match=message):
                MergedFn.from_dict(_nested(nodes))
    with pytest.raises(DomainError):
        MergedFn(())
    with pytest.raises(NotMinimal, match="f2 is not minimal at b2 = 1/2") as exc:
        MergedFn((good, (gmi(F(1, 3)), F(1, 2)), good))
    assert exc.value.certificate == check_minimal(gmi(F(1, 3)), F(1, 2))


def test_a_repeated_node_is_checked_once_per_construction(monkeypatch):
    calls = []
    check = seqmerge._minimal
    monkeypatch.setattr(seqmerge, "_minimal",
                        lambda f, lat, b: calls.append((f, b)) or check(f, lat, b))
    for _ in range(2):       # no memory across constructions
        calls.clear()
        P = phi_m(8, F(1, 2))
        assert calls == [(gmi(F(1, 2)), F(1, 2))]
        assert [id(lat) for lat in P._lattices] == [id(P._lattices[0])] * 8
    # the key is the stored tuples: an equal function with an extra
    # breakpoint, or the same function at another b, is checked again
    g = gmi(F(1, 2))
    calls.clear()
    MergedFn(((g, F(1, 2)), (g.refine_to([F(1, 8)]), F(1, 2)), (g, F(1, 2)),
              (gmi(F(1, 3)), F(1, 3)), (gmi(F(1, 3)), F(1, 3))))
    assert len(calls) == 3
    # a repeated bad node is reported at its first index
    bad = (gmi(F(1, 3)), F(1, 2))
    for nodes in (((g, F(1, 2)), bad, bad), (bad, (g, F(1, 2)), bad)):
        first = nodes.index(bad) + 1
        with pytest.raises(DomainError, match=f"f{first} is not minimal"):
            MergedFn(nodes)


def test_from_dict_parses_each_distinct_node_once(monkeypatch):
    # within one call: phi_m repeats one node, pi_n_k has a reflected
    # pi_k node over repeats of gmi
    trees = [(phi_m(8, F(1, 2)), 1), (pi_n_k(8, 3, F(2, 3)), 2)]
    made, init = [], PeriodicPWL.__init__
    monkeypatch.setattr(PeriodicPWL, "__init__",
                        lambda f, bps, vals: made.append(bps) or init(f, bps, vals))
    for P, parses in trees:
        d = P.to_dict()
        for _ in range(2):       # no memory across calls
            made.clear()
            assert MergedFn.from_dict(d).nodes == P.nodes
            assert len(made) == parses


def test_from_dict_parses_each_distinct_b_text_once(monkeypatch):
    # within one call, and again on the next: no memory across calls
    mixed = MergedFn(tuple((gmi(b), b) for b in
                           (F(1, 2), F(2, 3), F(1, 2), F(3, 5), F(2, 3), F(1, 2))))
    trees = [(phi_m(8, F(1, 2)), ["1/2"]), (pi_n_k(8, 3, F(2, 3)), ["2/3"]),
             (mixed, ["1/2", "2/3", "3/5"])]
    read, rat = [], seqmerge.rat
    monkeypatch.setattr(seqmerge, "rat", lambda x: read.append(x) or rat(x))
    for P, texts in trees:
        d = P.to_dict()
        for _ in range(2):
            read.clear()
            Q = MergedFn.from_dict(d)
            assert Q.nodes == P.nodes and Q._mass == P._mass
            assert sorted(read) == texts
    # a b that is not text is read each time, and refused as before
    tree = {"kind": "merge", "b1": True, "outer": gmi(F(1, 2)).to_dict(),
            "inner": {"kind": "leaf", "b": "1/2", "fn": gmi(F(1, 2)).to_dict()}}
    with pytest.raises(FormatError, match="cannot interpret bool"):
        MergedFn.from_dict(tree)


GMI_TEXT = {"breakpoints": ["0", "1/2"], "values": ["0", "1"]}


@pytest.mark.parametrize("fn, message", [
    ({"breakpoints": ["0", ["1/2"]], "values": ["0", "1"]},
     "cannot interpret list as exact rational"),
    ({"breakpoints": ["0", "1/2"], "values": ["0", {"1": 1}]},
     "cannot interpret dict as exact rational"),
    ({"breakpoints": ["0", "1/2"], "values": [0, True]},
     "cannot interpret bool as exact rational"),
    ({"breakpoints": ["0", "1/2"], "values": ["0", 1.0]},
     "cannot interpret float as exact rational"),
    (["0", "1/2"], "expected object with 'breakpoints' and 'values'"),
    ("0", "expected object with 'breakpoints' and 'values'"),
    ({"breakpoints": ["0", "1/2"]}, "expected object with 'breakpoints' and 'values'"),
    ({**GMI_TEXT, "kind": "leaf"}, "expected object with 'breakpoints' and 'values'"),
    ({"breakpoints": ("0", "1/2"), "values": ["0", "1"]},
     "'breakpoints' and 'values' must be JSON lists"),
])
def test_hostile_merged_nodes_keep_their_messages(fn, message):
    # each bad node follows a good node with equal text, as leaf and as
    # outer: a node parsed before does not excuse one that fails
    good = {"kind": "leaf", "b": "1/2", "fn": GMI_TEXT}
    for tree in ({"kind": "merge", "b1": "1/2", "outer": GMI_TEXT,
                  "inner": {"kind": "leaf", "b": "1/2", "fn": fn}},
                 {"kind": "merge", "b1": "1/2", "outer": GMI_TEXT,
                  "inner": {"kind": "merge", "b1": "1/2", "outer": fn, "inner": good}}):
        with pytest.raises(FormatError) as exc:
            MergedFn.from_dict(tree)
        assert str(exc.value) == message
    for tree, message in (
            ({"kind": "leaf", "b": "1/2"}, "leaf node must have exactly kind, b, fn"),
            ({"kind": "merge", "b1": "1/2", "outer": GMI_TEXT},
             "merge node must have exactly kind, b1, outer, inner"),
            ({"b": "1/2", "fn": GMI_TEXT}, "merged function JSON must be an object "
                                           "with a 'kind'")):
        with pytest.raises(FormatError) as exc:
            MergedFn.from_dict({"kind": "merge", "b1": "1/2", "outer": GMI_TEXT,
                                "inner": tree})
        assert str(exc.value) == message


def test_seq_merge_rejects_non_minimal_ingredients():
    g = gmi(F(1, 2))
    with pytest.raises(DomainError):
        MergedFn(((gmi(F(1, 3)), F(1, 2)), (g, F(1, 2))))   # wrong parameter
    with pytest.raises(DomainError):
        MergedFn(((g, F(1, 2)), (gmi(F(1, 3)), F(1, 2))))


def test_eval_dimension_mismatch():
    with pytest.raises(DomainError):
        eval_merged(phi_m(2, F(1, 2)), [F(1, 4)])


def test_check_lift_nondecreasing():
    assert check_lift_nondecreasing(pi_k_reflected(4, F(1, 2)), F(1, 2)).passed
    assert check_lift_nondecreasing(gmi(F(1, 3)), F(1, 3)).passed
    c = check_lift_nondecreasing(pi_k(4, F(1, 3)), F(1, 3))
    assert not c.passed and c.witness["kind"] == "slope-bound"


def test_region_gradients():
    grads = region_gradients(2, 2, F(1, 2))
    assert {g for _, g in grads} == {(F(1), F(1)), (F(-1), F(1))}
    grads = region_gradients(3, 5, F(1, 2))
    vecs = [g for _, g in grads]
    assert len(vecs) == 5 == len(set(vecs))


def test_region_gradients_match_finite_differences():
    for n, k in ((2, 3), (3, 4)):
        b = F(1, 2)
        P = pi_n_k(n, k, b)
        h = F(1, 2 ** 12)
        for region, grad in region_gradients(n, k, b):
            x = [iv.midpoint for iv in region]
            base = eval_merged(P, x)
            for i in range(n):
                xp = list(x)
                xp[i] += h
                assert (eval_merged(P, xp) - base) / h == grad[i]


def test_genuinely_nd_sampler():
    assert check_genuinely_nd(pi_n_k(2, 3, F(1, 2)), 100, seed=7).passed
    p3 = pi_k(3, F(1, 2))
    trivial = (lambda v: p3.eval(v[0]), 2)
    c = check_genuinely_nd(trivial, 100, seed=0)
    assert not c.passed
    assert c.witness["kind"] == "nonpositive-off-lattice"
    assert F(c.witness["value"]) == p3.eval(F(c.witness["point"][0]))


def test_subadditivity_sampler():
    assert sample_subadditivity_nd(phi_m(2, F(1, 2)), 500, seed=1).passed
    assert sample_subadditivity_nd(pi_n_k(2, 4, F(1, 2)), 500, seed=1).passed
    # mutant with a grid-verified violation must be caught
    # (a MergedFn refuses the non-minimal outer, so the merge formula is
    # written out here)
    g = gmi(F(1, 2))
    bad = PeriodicPWL(g.breakpoints, [F(0), F(11, 10)])
    b = F(1, 2)

    def M(v):
        inner = g.eval(v[1])
        return (b * inner + b * bad.eval(v[0] + v[1] - b * inner)) / (b + b)

    assert M([F(0), F(1, 8)]) + M([F(0), F(1, 2)]) < M([F(0), F(5, 8)])
    c = sample_subadditivity_nd((M, 2), 500, seed=0)
    assert not c.passed and c.witness["kind"] == "subadditivity-nd"
    x, y = ([F(v) for v in c.witness[key]] for key in ("x", "y"))
    delta = M(x) + M(y) - M([u + v for u, v in zip(x, y)])
    assert delta == F(c.witness["delta"]) < 0


def test_merged_json_round_trip():
    for Fn in (phi_m(3, F(1, 2)), pi_n_k(2, 4, F(2, 3)), MergedFn(((gmi(F(1, 2)), F(1, 2)),))):
        blob = Fn.to_dict()
        back = MergedFn.from_dict(blob)
        assert back.to_dict() == blob
        assert back.arity == Fn.arity and back.b_vector == Fn.b_vector
    with pytest.raises(FormatError):
        MergedFn.from_dict({"kind": "wat"})
    with pytest.raises(FormatError):
        MergedFn.from_dict({"kind": "leaf", "b": "1/2"})
