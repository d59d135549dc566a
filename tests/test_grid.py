import random
from fractions import Fraction

import pytest

import pathfn.cli as cli
import pathfn.differences
import pathfn.grid
import pathfn.series
from pathfn.audit import enumerate_triplets, u_delta_identity_residual
from pathfn.core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    PolySplinePeriodic,
    Scale,
    Sum,
    ThetaSplice,
    USeries,
    eval_exact,
    eval_exact_points,
)
from pathfn.core.points import radix_y_set
from pathfn.differences import (MembershipQuery, _membership_scan_on, central_second_diff, membership_scan,
                                semiconcavity_scan)
from pathfn.errors import ResourceLimitError, UnsupportedExactError
from pathfn.grid import grid_values, scan_grid
from pathfn.series import identity_residual_scan

F = Fraction


def random_spline(rng):
    """A continuous periodic spline: a random polygon plus a random bump x(1-x)p(x)."""
    cuts = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(1, 3))})
    knots = (F(0),) + tuple(cuts) + (F(1),)
    heights = (F(0),) + tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in cuts) + (F(0),)
    bump = F(rng.randint(-3, 3), rng.randint(1, 4))
    pieces = []
    for x0, x1, v0, v1 in zip(knots, knots[1:], heights, heights[1:]):
        slope = (v1 - v0) / (x1 - x0)
        # v0 - slope x0 + slope x + bump (x - x^2)
        pieces.append((v0 - slope * x0, slope + bump, -bump))
    return PolySplinePeriodic(knots=knots, pieces=tuple(pieces))


def random_tree(rng, depth):
    leaves = [Distance, lambda: DistancePower(rng.randint(1, 3)), lambda: ThetaSplice(rng.choice([2, 3])),
              lambda: random_spline(rng), lambda: USeries(rng.choice([2, 3]), Distance())]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.randrange(4)
    if kind == 0:
        return Scale(F(rng.randint(-5, 5), rng.randint(1, 6)), random_tree(rng, depth - 1))
    if kind == 1:
        return Sum(tuple(random_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == 2:
        return Dilate(rng.randint(1, 4), random_tree(rng, depth - 1))
    return USeries(rng.choice([2, 3]), random_tree(rng, depth - 1))


def assert_table_exact(f, Q):
    vals, den = grid_values(f, Q)
    assert len(vals) == Q + 1
    expected = eval_exact_points(f, [F(j, Q) for j in range(Q + 1)])
    for j in range(Q + 1):
        assert F(vals[j], den) == expected[j], (f, Q, j)


@pytest.mark.parametrize("seed", range(8))
def test_grid_values_match_eval_exact_on_random_trees(seed):
    rng = random.Random(seed)
    for _ in range(6):
        f = random_tree(rng, 3)
        for Q in (1, rng.choice([2, 3]) ** rng.randint(1, 6), rng.choice([6, 10, 12, 14, 45])):
            assert_table_exact(f, Q)


@pytest.mark.parametrize("N", [1, 2, 5, 9])
def test_cyclic_series_table_takagi3_on_dyadic_grid(N):
    # x -> 3x mod 1 permutes the dyadic grid: every orbit is a genuine cycle
    assert_table_exact(USeries(3, Distance()), 2**N)
    assert_table_exact(USeries(3, ThetaSplice(2)), 2**N)


@pytest.mark.parametrize("r", [2, 3])
def test_takagi_table_matches_integer_level_recursion(r):
    w = [0, 0]  # W_0 on {0, 1}
    for level in range(1, 9):
        rl = r**level
        w = [min(j, rl - j) + w[j % (rl // r)] for j in range(rl + 1)]
        vals, den = grid_values(USeries(r, Distance()), rl)
        assert [F(v, den) for v in vals] == [F(x, rl) for x in w]


def test_takagi_closed_form_at_dyadic_points():
    # tau_2(2^-n) = n 2^-n (Lagarias, The Takagi function and its properties)
    vals, den = grid_values(USeries(2, Distance()), 2**12)
    for n in range(13):
        assert F(vals[2 ** (12 - n)], den) == F(n, 2**n)


def test_sine_leaves_have_no_table():
    with pytest.raises(UnsupportedExactError):
        grid_values(Sum((Distance(), AbsSin())), 8)


def test_series_table_is_written_over_its_generators_table():
    # the series rule filled a second list of Q + 1 entries beside its
    # generator's table: building tau2's at Q = 2^15 peaked at about twice the
    # size of the table it returns
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = USeries(2, Distance()).table(2**15)
        size, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(table[0]) == 2**15 + 1 and peak < 1.5 * size


def test_a_table_belongs_to_its_caller():
    # a series node overwrites its generator's table, so each call must return
    # a new list; Q = 48 puts cycles of j -> 2j and of j -> 3j on the grid
    tau2 = USeries(2, Distance())
    trees = [Distance(), tau2, USeries(3, tau2), Scale(F(1, 3), tau2), Sum((tau2, Distance())), Dilate(3, tau2)]
    for f in trees:
        first, second = f.table(48), f.table(48)
        assert first == second and first[0] is not second[0], f
        first[0][:] = [v + 1 for v in first[0]]
        assert f.table(48) == second, f


def brute_worst(f, c, r, n_max, ys):
    """Per-triplet margins through the point evaluator, first maximiser kept."""
    worst, worst_t = None, None
    for t in enumerate_triplets(r, n_max, ys):
        margin = central_second_diff(f, t, r) + 2 * c * r**t.n
        if worst is None or margin > worst:
            worst, worst_t = margin, t
    return worst, worst_t


@pytest.mark.parametrize(
    "f,c,r,n_max,ys",
    [
        (USeries(2, Distance()), F(1), 2, 4, (F(1, 3),)),
        (USeries(2, Distance()), F(2), 2, 3, (F(1, 3), F(1, 2), F(2, 5))),
        (ThetaSplice(2), F(1, 4), 2, 4, (F(1, 3), F(5, 7))),
        (USeries(3, Distance()), F(1), 2, 3, (F(1, 6), F(3, 4))),
    ],
)
def test_non_radix_y_scan_matches_brute_force(f, c, r, n_max, ys):
    rep = membership_scan(MembershipQuery(f=f, c=c, r=r, n_max=n_max, y_set=ys))
    assert (rep.worst_margin, rep.worst_triplet) == brute_worst(f, c, r, n_max, ys)


@pytest.mark.parametrize("f", [Distance(), USeries(2, Distance())])
@pytest.mark.parametrize("r", [2, 3])
def test_tie_heavy_scans_keep_the_first_worst_triplet(f, r):
    ys = tuple(F(j, r**2) for j in range(1, r**2))
    rep = membership_scan(MembershipQuery(f=f, c=F(2), r=r, n_max=3, y_set=ys))
    worst, worst_t = brute_worst(f, F(2), r, 3, ys)
    assert (rep.worst_margin, rep.worst_triplet) == (worst, worst_t)
    ties = [t for t in enumerate_triplets(r, 3, ys) if central_second_diff(f, t, r) + 4 * r**t.n == worst]
    assert len(ties) > 1 and min(ties) == worst_t


def test_grid_table_size_counts_against_the_cap():
    # few triplets, but y's denominator makes the table far larger: refused before it is built
    q = MembershipQuery(f=USeries(2, Distance()), c=F(2), r=2, n_max=2, y_set=(F(1, 1000003),))
    with pytest.raises(ResourceLimitError, match="grid table"):
        membership_scan(q, cap=10**5)
    with pytest.raises(ResourceLimitError, match="grid table"):  # float scans slice the same grid
        membership_scan(MembershipQuery(q.f, q.c, q.r, q.n_max, q.y_set, mode="float"), cap=10**5)
    with pytest.raises(ResourceLimitError, match="grid table"):
        identity_residual_scan(USeries(2, Distance()), 0, (F(1, 2**40),), cap=10**5)


@pytest.mark.parametrize("command", ["membership", "identity"])
def test_negative_depth_is_a_usage_error(capsys, spec_file, command):
    flag = "--func" if command == "membership" else "--psi"
    argv = [command, flag, spec_file({"kind": "distance"}), "--r", "2", "--nmax", "-2", "--ydepth", "5"]
    assert cli.main(argv + (["--c", "1"] if command == "membership" else [])) == 2
    assert "n_max must be >= 0" in capsys.readouterr().err


def test_eval_grid_csv_equals_pointwise_csv(capsys, spec_file):
    path = spec_file({"kind": "useries", "r": 3, "psi": {"kind": "theta_splice", "r": 3}})
    assert cli.main(["eval", "--func", path, "--grid", "3"]) == 0
    grid_out = capsys.readouterr().out
    points = ",".join(f"{j}/27" for j in range(28))
    assert cli.main(["eval", "--func", path, "--points", points]) == 0
    assert grid_out == capsys.readouterr().out


first_offender_cases = pytest.mark.parametrize(
    "psi,r,n_max,x0",
    [(Distance(), 2, 5, F(5, 32)), (Distance(), 2, 5, F(1, 128)), (ThetaSplice(2), 2, 6, F(13, 64)),
     (Dilate(2, Distance()), 3, 3, F(7, 27)), (ThetaSplice(2), 2, 4, F(1, 4))],
)


@first_offender_cases
def test_identity_scan_reports_the_first_offender(monkeypatch, psi, r, n_max, x0, table="psi"):
    """The generator's or the transform's value corrupted at one grid point
    x0, in its table and in the point evaluators alike: the scan must stop
    where a triplet-by-triplet walk of the single-shot residual first sees
    it.  At a y point the first offender is at depth 0, against the anchor."""
    ys = radix_y_set(r, 2)
    s = USeries(r, psi)
    target = psi if table == "psi" else s

    def bump(f, x, v):
        return v + F(1, 3) if f == target and F(x) % 1 == x0 else v

    def corrupt(real):
        return lambda f, x, *args, **kw: bump(f, x, real(f, x, *args, **kw))

    def corrupt_points(real):
        return lambda f, xs, *args, **kw: [bump(f, x, v) for x, v in zip(xs, real(f, xs, *args, **kw))]

    def corrupt_table(f, Q):
        vals, den = grid_values(f, Q)
        if f != target:
            return vals, den
        vals = [3 * v for v in vals]
        vals[int(x0 * Q)] += den
        return vals, 3 * den

    monkeypatch.setattr(pathfn.differences, "eval_exact_points", corrupt_points(pathfn.differences.eval_exact_points))
    monkeypatch.setattr(pathfn.series, "eval_exact", corrupt(pathfn.series.eval_exact))
    expected = None
    for checked, t in enumerate(enumerate_triplets(r, n_max, ys), 1):
        residual = u_delta_identity_residual(s, t)
        if residual:
            expected = (checked, t, residual)
            break
    assert expected is not None and (expected[1].n == 0) == (x0 in ys)
    monkeypatch.setattr(pathfn.series, "grid_values", corrupt_table)
    rep = identity_residual_scan(s, n_max, ys)
    assert (rep.checked, rep.offender, rep.residual) == expected


@first_offender_cases
def test_identity_scan_reports_the_first_offender_in_u_table(monkeypatch, psi, r, n_max, x0):
    test_identity_scan_reports_the_first_offender(monkeypatch, psi, r, n_max, x0, table="U")


def test_identity_scan_reads_u_of_1_apart_from_u_of_0(monkeypatch):
    # U's table plus the line x changes no second difference, so no residual;
    # read as U(0) at the left end of a depth-(n-1) stencil, U(1) made one
    ys, s = radix_y_set(3, 2), USeries(3, ThetaSplice(3))

    def plus_line(f, Q):
        vals, den = grid_values(f, Q)
        return ([Q * v + j * den for j, v in enumerate(vals)], Q * den) if f == s else (vals, den)

    monkeypatch.setattr(pathfn.series, "grid_values", plus_line)
    rep = identity_residual_scan(s, 3, ys)
    assert rep.offender is None and rep.checked == 40 * len(ys)


def traced_peak(build):
    """(result, traced bytes held, traced peak) of ``build()``, both above what was held before it."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.mark.parametrize("f, bound", [
    (Scale(F(1, 3), USeries(2, Distance())), 1.5),
    (Sum((USeries(2, Distance()), USeries(2, DistancePower(2)))), 2.5),
])
def test_scale_and_sum_tables_are_written_over_their_childrens(f, bound):
    # both built new lists beside the tables their children returned: at
    # Q = 2^15 the scale peaked at 1.99 times the table it returns, the sum
    # (both children's tables, their scaled copies and the result) at 5.17
    table, held, peak = traced_peak(lambda: f.table(2**15))
    assert table == f.table(2**15) and peak < bound * held


def test_a_scan_holds_its_table_and_one_piece_of_a_row():
    # tau2 at depth 15 on y = 1/2: a whole row held three slices and a g of
    # 32 768 entries each, about 1.9 MiB above the 65 537-entry table
    ys = radix_y_set(2, 1)
    q = MembershipQuery(f=USeries(2, Distance()), c=F(2), r=2, n_max=15, y_set=ys)
    table = grid_values(q.f, scan_grid(2, 15, ys))
    rep, _, peak = traced_peak(lambda: _membership_scan_on(q, table, cap=10**7))
    assert rep == membership_scan(q) and peak < 2**19


def test_the_identity_scan_holds_its_two_tables_and_no_row_of_sums():
    # a row of r^n generator sums per y, kept beside the two tables, put
    # theta2 at depth 11 on ydepth 5 about 1.8 MiB above building its tables
    s, ys = USeries(2, ThetaSplice(2)), radix_y_set(2, 5)
    Q = scan_grid(2, 11, ys)
    _, _, tables = traced_peak(lambda: (grid_values(s, Q), grid_values(s.psi, Q)))
    rep, _, peak = traced_peak(lambda: identity_residual_scan(s, 11, ys))
    assert rep.offender is None and peak <= tables + 2**18


@pytest.mark.parametrize("piece", [3, 1])
@pytest.mark.parametrize("seed", range(4))
def test_scans_in_pieces_equal_scans_of_whole_rows(monkeypatch, seed, piece):
    # pieces of 3 stencils cut every row past depth 1, pieces of 1 every row
    # past depth 0; each row still gives one key, the first largest g over its pieces
    rng = random.Random(100 + seed)
    for _ in range(3):
        f, r = random_tree(rng, 2), rng.choice([2, 3])
        n_max, ys = 4 if r == 2 else 3, radix_y_set(r, rng.randint(1, 2))
        c = F(rng.randint(1, 8), rng.randint(1, 4))
        queries = [MembershipQuery(f=f, c=c, r=r, n_max=n_max, y_set=ys, mode=mode) for mode in ("exact", "float")]
        semi = dict(psi=f, alpha=F(rng.randint(0, 6)), r=r, n_max=n_max, y_set=ys)
        s = USeries(r, random_tree(rng, 1))
        j = rng.randrange(1, scan_grid(r, n_max, ys))  # a generator entry the identity scan is made to miss

        def corrupt_table(g, Q, _real=grid_values, _psi=s.psi, _j=j):
            vals, den = _real(g, Q)
            if g == _psi:
                vals = [3 * v for v in vals]
                vals[_j] += den
                den *= 3
            return vals, den

        def scans():
            out = [membership_scan(q) for q in queries]
            out += [semiconcavity_scan(**semi, mode=mode) for mode in ("exact", "float")]
            out.append(identity_residual_scan(s, n_max, ys))
            with monkeypatch.context() as m:
                m.setattr(pathfn.series, "grid_values", corrupt_table)
                out.append(identity_residual_scan(s, n_max, ys))
            return out

        monkeypatch.setattr(pathfn.grid, "_PIECE", 10**9)
        whole = scans()
        monkeypatch.setattr(pathfn.grid, "_PIECE", piece)
        assert scans() == whole, (f, r, ys)
        assert (whole[0].worst_margin, whole[0].worst_triplet) == brute_worst(f, c, r, n_max, ys)
        assert whole[-1].offender is not None and whole[-2].offender is None
