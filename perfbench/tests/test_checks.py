"""Each benchmark check passes on the program's real output and fails when
one output value is corrupted."""

import json
import types

import numpy as np
import pytest

import checks
import reference as ref
import spans
import workloads


# ---------------------------------------------------------------- select


@pytest.fixture(scope="module")
def small_select(ak, tmp_path_factory):
    wl = workloads.SelectP17(ak, tmp_path_factory.mktemp("select"), seed=3)
    wl.n, wl.p, wl.sample_size = 4000, 8, 60
    wl.setup()
    outcome = wl.settle(0, wl.op(0))
    return wl, outcome


def test_select_checks_pass_on_program_output(small_select):
    wl, outcome = small_select
    assert not outcome.failed
    assert wl.check([outcome]) == []


def test_select_flipped_mask_fails(small_select):
    wl, _ = small_select
    out = checks.read_select_outputs(wl.outdir, 0)
    hexes = out["doc"]["selected_masks_hex"]
    hexes[0] = f"{int(hexes[0], 16) ^ 0b10:#x}"  # drop or add X2
    assert checks.select_truth(wl.p, hexes)
    assert checks.select_files(wl.p, out)


def test_select_perturbed_value_fails(small_select):
    wl, _ = small_select
    out = checks.read_select_outputs(wl.outdir, 1)
    sample = np.array([0, 5, 77, 200])
    expected = ref.criterion_reference(wl.x, wl.t, wl.y, 1, sample)
    assert checks.criterion_sample(out["masks"], out["values"], sample, expected) == []
    values = out["values"].copy()
    values[np.flatnonzero(out["masks"] == 77)[0]] *= 1 + 1e-7
    assert checks.criterion_sample(out["masks"], values, sample, expected)


def test_select_file_disagreements_fail(small_select):
    wl, _ = small_select
    for corrupt in (
        lambda o: o["doc"].update(tau=o["doc"]["tau"] + 1),
        lambda o: o["doc"]["selected_sets"][0].append(8),
        lambda o: o["indices"].__setitem__(3, "1 2"),
        lambda o: o["scree"].__setitem__(10, o["scree"][10] * 2),
        lambda o: o["values"].__setitem__(0, -1.0),
    ):
        out = checks.read_select_outputs(wl.outdir, 0)
        assert checks.select_files(wl.p, out) == []
        corrupt(out)
        assert checks.select_files(wl.p, out), corrupt


# ---------------------------------------------------------------- replicate


@pytest.fixture(scope="module")
def small_replicate(ak, tmp_path_factory):
    wl = workloads.ReplicateP10(ak, tmp_path_factory.mktemp("replicate"), seed=2)
    wl.models, wl.n_values = (1, 3, 4), (400,)
    return wl, wl.settle(0, wl.op(0))


def test_replicate_checks_pass_on_program_output(small_replicate):
    wl, outcome = small_replicate
    assert not outcome.failed
    assert wl.check([outcome]) == []


@pytest.mark.parametrize("metric", ["rho", "omega", "pi"])
def test_replicate_perturbed_metric_fails(small_replicate, metric):
    wl, outcome = small_replicate
    rows = [dict(r) for r in outcome.data]
    row = next(r for r in rows if r["metric"] == metric and r["model"] == 3)
    row["value"] += 0.5
    assert checks.replicate_metrics(rows, wl._cells(wl._samples(wl.op_seed(0))))


def test_copula_invariance_check(ak):
    rng = np.random.default_rng(0)
    x, t, y = ref.model1_sample(rng, 300, 4)
    dm, copula = ak["data_model"], ak["copula"]

    def program(x, t, y):
        return copula.transform_dataset(dm.Dataset(x=x, t=t, y=y)).x

    assert checks.copula_invariance(program, x, t, y) == []
    assert checks.copula_invariance(lambda x, t, y: x - x.mean(axis=0), x, t, y)


# ---------------------------------------------------------------- oracle


def _oracle_case(ak, p, edges):
    dag = ak["dag_oracle"].Dag.from_text(ref.edge_text(p, edges))
    coll = ak["dag_oracle"].true_collection(dag)
    report = json.loads(json.dumps(ak["set_analysis"].structure_report(coll).to_dict()))
    g = ref.Graph(p, edges)
    expected = np.array([ref.yt_separated(g, m) for m in range(1 << p)])
    return report, np.array(coll.member_array), expected, lambda m: ref.yt_separated(g, m)


@pytest.fixture(scope="module")
def oracle_cases(ak):
    rng = np.random.default_rng(11)
    cases = [_oracle_case(ak, 10, ref.model3_edges(10))]
    while len(cases) < 4:
        edges = ref.random_dag_edges(rng, 8, x_edge_prob=0.4)
        case = _oracle_case(ak, 8, edges)
        if len(case[0]["locally_minimal"]) >= 2:
            cases.append(case)
    return cases


def test_oracle_checks_pass_on_program_output(oracle_cases):
    for report, member, expected, separated in oracle_cases:
        p = int(member.size).bit_length() - 1
        assert checks.oracle_report(p, report, member, expected, separated) == []


def test_oracle_dropped_member_fails(oracle_cases):
    report, member, expected, separated = oracle_cases[1]
    dropped = member.copy()
    dropped[np.flatnonzero(member)[-1]] = False
    assert checks.oracle_report(8, report, dropped, expected, separated)


def test_oracle_report_corruptions_fail(oracle_cases):
    report, member, expected, separated = oracle_cases[1]
    for corrupt in (
        lambda r: r["locally_minimal"].pop(),
        lambda r: r.update(n_members=r["n_members"] - 1),
        lambda r: r["locally_minimal"][0].append(8),
    ):
        bad = json.loads(json.dumps(report))
        corrupt(bad)
        assert checks.oracle_report(8, bad, member, expected, separated)


def test_closed_form_counts_match_the_paper(ak):
    masks = np.arange(1 << 12)
    assert ref.model1_truth(masks).sum() == 448 << 2
    assert ref.model3_truth(masks).sum() == 736 << 2
    report, member, expected, separated = _oracle_case(ak, 10, ref.model3_edges(10))
    assert np.array_equal(expected, ref.model3_truth(np.arange(1 << 10)))
    assert checks.oracle_report(10, report, member, expected, separated, 736) == []
    assert checks.oracle_report(10, report, member, expected, separated, 737)


def test_path_count_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(5):
        edges = ref.random_dag_edges(rng, 6, x_edge_prob=0.5)
        g = ref.Graph(6, edges)
        und = {v: set() for v in range(8)}
        for a, b in edges:
            und[ref._node(a)].add(ref._node(b))
            und[ref._node(b)].add(ref._node(a))

        def walk(v, seen):
            return sum(1 if w == 1 else walk(w, seen | {w})
                       for w in und[v] if w not in seen)

        assert ref.count_yt_paths(g, 10**6) == walk(0, {0})
        assert ref.count_yt_paths(g, 0) in (None, 0)


# ---------------------------------------------------------------- spans


def test_tracer_self_time_and_restore():
    owner = types.SimpleNamespace()
    owner.inner = lambda n: sum(range(n))
    owner.outer = lambda n: owner.inner(n) + 1
    original = owner.outer, owner.inner
    tracer = spans.Tracer()
    points = [(owner, "outer", "a.outer", "a", lambda args, r: {"n": args[0]}),
              (owner, "inner", "b.inner", "b", None)]
    with tracer.installed(points):
        assert owner.outer(10_000) == sum(range(10_000)) + 1
    assert (owner.outer, owner.inner) == original
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    own = tracer.self_times()
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    totals = tracer.layer_totals()["layers"]
    assert totals["a"]["n"] == 10_000 and totals["a"]["calls"] == 1 and totals["b"]["calls"] == 1
