"""A grid fits each identical unit once: one training state per learner
spec and training rows, whose build, for a shared kNN state, also searches
the test rows in its index, and one fit per ensemble member that several
ensembles have.  Sharing changes no report byte, and a unit lives no
longer than its last consumer."""

import gc
import json
import weakref

import numpy as np
import pytest

from mullab import cli, ensemble, learners
from mullab.core import MLDataset
from mullab.learners import KnnSpec, preset
from mullab.metrics import evaluate
from mullab.transforms import FitUnits, MemberSpec, fit_member

from synth import correlated_dataset, to_arff_text

KNN_GRID = [
    {"name": "br-knn", "transform": "br", "learner": "knn"},
    {"name": "lp-knn", "transform": "lp", "learner": "knn"},
    {"name": "rakel-knn", "transform": "rakel", "learner": "knn"},
    {"name": "br-nb", "transform": "br", "learner": "nb"},
]


def write_data(tmp_path, dataset):
    path = tmp_path / "data.arff"
    path.write_text(to_arff_text(dataset), encoding="utf-8")
    return path


@pytest.fixture
def data_path(tmp_path):
    train, _ = correlated_dataset(123, n_train=60, n_test=0, n_labels=3,
                                  n_features=4)
    return write_data(tmp_path, train)


def run_grid(tmp_path, data_path, experiments, fmt="csv"):
    """The exit code and report bytes of a benchmark grid over one data
    file split 67:33, or over a (train, test) pair of files."""
    if isinstance(data_path, tuple):
        data = {"dataset": {"train": str(data_path[0]),
                            "test": str(data_path[1]), "trailing_labels": 3}}
    else:
        data = {"dataset": {"path": str(data_path), "trailing_labels": 3},
                "split": {"ratio": 0.67}}
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(data | {
        "seed": 5, "format": fmt,
        "experiments": experiments}), encoding="utf-8")
    out = tmp_path / "report"
    code = cli.main(["benchmark", "--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes()


def counting(monkeypatch, owner, name, calls, when=lambda *args: True):
    """Append the arguments of every call of ``owner.name`` that ``when``
    accepts to ``calls``."""
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        if when(*args):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


def test_knn_grid_builds_one_state_one_index_and_one_search(
        data_path, tmp_path, monkeypatch):
    _, alone = run_grid(tmp_path, data_path, KNN_GRID)
    states, indexes, searches = [], [], []
    counting(monkeypatch, learners.TrainingState, "__init__", states,
             lambda state, spec, *rest: isinstance(spec, KnnSpec))
    counting(monkeypatch, learners.KnnIndex, "__init__", indexes)
    counting(monkeypatch, learners.KnnIndex, "_search", searches)
    code, report = run_grid(tmp_path, data_path, KNN_GRID)
    assert code == 0
    assert (len(states), len(indexes), len(searches)) == (1, 1, 1)
    assert report == alone
    # each row is the row of its experiment run on its own
    lines = report.decode().splitlines()
    for exp, line in zip(KNN_GRID, lines[1:]):
        assert run_grid(tmp_path, data_path, [exp])[1].decode().splitlines()[1] \
            == line


def test_pruned_sets_share_a_state_only_with_equal_p_and_b(
        data_path, tmp_path, monkeypatch):
    experiments = [
        {"name": "ps-a", "transform": "ps", "learner": "knn", "p": 2, "b": 2},
        {"name": "ps-b", "transform": "ps", "learner": "knn", "p": 2, "b": 2},
        {"name": "ps-p3", "transform": "ps", "learner": "knn", "p": 3, "b": 2},
        {"name": "lp-knn", "transform": "lp", "learner": "knn"},
    ]
    states, searches = [], []
    counting(monkeypatch, learners.TrainingState, "__init__", states,
             lambda state, spec, *rest: isinstance(spec, KnnSpec))
    counting(monkeypatch, learners.KnnIndex, "_search", searches)
    code, report = run_grid(tmp_path, data_path, experiments)
    assert code == 0
    # ps-a and ps-b share one state and its search; ps-p3 and lp-knn each
    # build their own
    assert (len(states), len(searches)) == (3, 3)
    lines = report.decode().splitlines()
    for exp, line in zip(experiments, lines[1:]):
        assert run_grid(tmp_path, data_path, [exp])[1].decode().splitlines()[1] \
            == line


def test_evaluate_reads_the_search_its_shared_index_kept(monkeypatch):
    train, test = correlated_dataset(3, n_train=40, n_test=10, n_labels=3,
                                     n_features=3)
    spec = MemberSpec("rakel", preset("knn"))
    searches = []
    counting(monkeypatch, learners.KnnIndex, "_search", searches)
    table = FitUnits(train, test, [spec.units()])
    model = fit_member(train, spec, units=table)
    table.done()
    assert len(searches) == 1
    report = evaluate(model, test, 0.5)
    assert len(searches) == 1
    assert report == evaluate(fit_member(train, spec), test, 0.5)
    assert len(searches) == 2


def ensembles(*fields):
    return [{"name": f"ens-{i}", "transform": "ensemble", "seed": 3} | f
            for i, f in enumerate(fields)]


@pytest.mark.parametrize("experiments, fits", [
    (ensembles(*({"q": 5, "rule": rule}
                 for rule in ("mean", "max", "min", "majority_vote"))), 5),
    (ensembles({"q": 5}, {"q": 10}), 10),
], ids=["rules", "q-sweep"])
def test_ensembles_with_one_seed_fit_each_member_once(
        experiments, fits, data_path, tmp_path, monkeypatch):
    calls = []
    counting(monkeypatch, ensemble, "fit_member", calls)
    code, report = run_grid(tmp_path, data_path, experiments)
    assert code == 0 and len(calls) == fits
    lines = report.decode().splitlines()
    for exp, line in zip(experiments, lines[1:]):
        assert run_grid(tmp_path, data_path, [exp])[1].decode().splitlines()[1] \
            == line


def test_ensembles_with_derived_seeds_share_no_member(data_path, tmp_path,
                                                       monkeypatch):
    calls = []
    counting(monkeypatch, ensemble, "fit_member", calls)
    experiments = [{"name": "a", "transform": "ensemble", "q": 3},
                   {"name": "b", "transform": "ensemble", "q": 3}]
    assert run_grid(tmp_path, data_path, experiments)[0] == 0
    assert len(calls) == 6


def test_no_unit_outlives_its_last_consumer(data_path, tmp_path, monkeypatch):
    experiments = [
        {"name": "br-knn", "transform": "br", "learner": "knn"},    # 0
        {"name": "br-nb", "transform": "br", "learner": "nb"},      # 1
        {"name": "a", "transform": "ensemble", "q": 3, "seed": 9},  # 2
        {"name": "lp-knn", "transform": "lp", "learner": "knn"},    # 3
        {"name": "b", "transform": "ensemble", "q": 2, "seed": 9},  # 4
        {"name": "lp-nb", "transform": "lp", "learner": "nb"},      # 5
        # fails before it takes the state it shares with br-nb and lp-nb
        {"name": "rakel-nb", "transform": "rakel", "learner": "nb",
         "k": 9},                                                    # 6
        {"name": "br-j48", "transform": "br", "learner": "j48"},    # 7
    ]
    # (kind, experiment that built it, ordinal) -> its last consumer; any
    # other unit lives only in the experiment that built it
    last = {("state", 0, 0): 3, ("search", 0, 0): 3, ("state", 1, 0): 6,
            ("member", 2, 0): 4, ("member", 2, 1): 4}
    units = []  # (weakref, kind, experiment, ordinal)
    current = [-1]

    def track(kind):
        def observe(result):
            ordinal = sum(1 for _, k, e, _ in units
                          if (k, e) == (kind, current[0]))
            units.append((weakref.ref(result), kind, current[0], ordinal))
        return observe

    def watch(owner, name, observe, returns=True):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            observe(result if returns else args[0])
            return result
        monkeypatch.setattr(owner, name, wrapped)

    def check(now):
        alive = {(k, e, o) for ref, k, e, o in units if ref() is not None}
        expected = {(k, e, o) for _, k, e, o in units
                    if last.get((k, e, o), e) >= now}
        assert alive == expected, now

    watch(learners.TrainingState, "__init__", track("state"), returns=False)
    watch(learners.KnnIndex, "_search", track("search"))
    watch(ensemble, "fit_member", track("member"))
    build = cli._build_model

    def building(*args, **kwargs):
        current[0] += 1
        check(current[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "_build_model", building)
    assert run_grid(tmp_path, data_path, experiments)[0] == 3
    assert current[0] == 7
    assert set(last) <= {(k, e, o) for _, k, e, o in units}
    check(len(experiments))  # nothing is alive after the grid


def test_a_shared_state_that_fails_fails_every_consumer(tmp_path,
                                                        monkeypatch):
    # every value of the first column is 1e308: its mean overflows, so the
    # kNN index refuses the column scale
    train, _ = correlated_dataset(7, n_train=30, n_test=0, n_labels=3,
                                  n_features=2)
    X = train.X.copy()
    X[:, 0] = 1e308
    data = write_data(tmp_path, MLDataset(train.schema, X, train.Y))
    indexes = []
    counting(monkeypatch, learners.KnnIndex, "__init__", indexes)
    code, report = run_grid(tmp_path, data, KNN_GRID[:3], "json")
    assert code == 3 and len(indexes) == 1
    rows = json.loads(report)["rows"]
    assert [row["experiment"] for row in rows] == ["br-knn", "lp-knn",
                                                   "rakel-knn"]
    assert {row["error"] for row in rows} == {
        "knn column means or scales are not finite numbers; rescale the "
        "features"}


def test_a_shared_search_that_fails_fails_every_consumer(tmp_path,
                                                         monkeypatch):
    # one test row's distance to every training row overflows
    train, test = correlated_dataset(7, n_train=30, n_test=10, n_labels=3,
                                     n_features=2)
    X = test.X.copy()
    X[4, 0] = 1e200
    files = (tmp_path / "train.arff", tmp_path / "test.arff")
    for path, rows in zip(files, (train, MLDataset(test.schema, X, test.Y))):
        path.write_text(to_arff_text(rows), encoding="utf-8")
    searches = []
    counting(monkeypatch, learners.KnnIndex, "_search", searches)
    code, report = run_grid(tmp_path, files, KNN_GRID[:3], "json")
    assert code == 3 and len(searches) == 1
    rows = json.loads(report)["rows"]
    assert [row["experiment"] for row in rows] == ["br-knn", "lp-knn",
                                                   "rakel-knn"]
    assert {row["error"] for row in rows} == {
        "knn distances are not finite numbers; rescale the features"}


def test_a_table_shares_nothing_for_other_data():
    train, test = correlated_dataset(3, n_train=40, n_test=10, n_labels=3,
                                     n_features=3)
    other = train.subset(range(30))
    spec = MemberSpec("br", preset("knn"))
    table = FitUnits(train, test, [spec.units(), spec.units()])
    grid = fit_member(train, spec, units=table)
    table.done()
    expected = grid.predict_scores_many(test.X)
    # a fit on other rows, and a predict of other queries, build their own
    # state and search, and leave the grid's to the grid
    model = fit_member(other, spec, units=table)
    assert model.members[0][1].index is not grid.members[0][1].index
    alone = fit_member(other, spec)
    assert np.array_equal(model.predict_scores_many(test.X),
                          alone.predict_scores_many(test.X))
    shared = fit_member(train, spec, units=table)
    assert shared.members[0][1].index is grid.members[0][1].index
    assert np.array_equal(shared.predict_scores_many(test.X.copy()),
                          expected)
    assert np.array_equal(grid.predict_scores_many(test.X),
                          expected)
    table.done()


def test_consumers_build_each_unit_once_and_keep_none():
    train, test = correlated_dataset(3, n_train=20, n_test=5, n_labels=2,
                                     n_features=2)

    class Unit:
        pass

    keys = [("unit", j) for j in range(6)] + [("fails",)]
    n = 16
    table, builds = FitUnits(train, test, [keys] * n), []

    def build(key):
        builds.append(key)
        if key == ("fails",):
            raise ValueError("no such unit")
        return Unit()

    # the experiments take the keys in different orders, and every third
    # one ends before it takes its last two
    results = []
    for i in range(n):
        order = keys[i % len(keys):] + keys[:i % len(keys)]
        taken = {}
        for key in order[:-2] if i % 3 == 0 else order:
            try:
                taken[key] = table.take(key, lambda key=key: build(key), train)
            except ValueError as e:
                taken[key] = str(e)
        table.done()
        results.append(taken)
    assert sorted(builds) == sorted(keys)
    for key in keys:
        got = [taken[key] for taken in results if key in taken]
        assert len(got) > n // 2
        assert all(unit is got[0] for unit in got)
    assert all(taken[("fails",)] == "no such unit"
               for taken in results if ("fails",) in taken)
    # the table kept no unit past its consumers
    refs = {key: weakref.ref(unit) for taken in results
            for key, unit in taken.items() if isinstance(unit, Unit)}
    del results, taken, got
    assert len(refs) == 6 and all(ref() is None for ref in refs.values())


def test_a_unit_dies_at_its_last_consumers_take_or_done():
    train, test = correlated_dataset(3, n_train=20, n_test=5, n_labels=2,
                                     n_features=2)

    class Unit:
        pass

    table = FitUnits(train, test, [["a", "b"]] * 3)
    # without the cyclic collector, only reference counts free a unit
    gc.disable()
    try:
        first = table.take("a", Unit, train), table.take("b", Unit, train)
        refs = [weakref.ref(unit) for unit in first]
        del first
        table.done()
        assert table.take("a", Unit, train) is refs[0]()
        table.done()  # the middle experiment never takes "b"
        assert refs[0]() is not None and refs[1]() is not None
        # the last consumer of "a" takes it: once its caller lets go, it is
        # dead, while the experiment still runs
        assert table.take("a", Unit, train) is refs[0]()
        assert refs[0]() is None
        # the last consumer of "b" ends without taking it
        assert refs[1]() is not None
        table.done()
        assert refs[1]() is None
    finally:
        gc.enable()


def test_a_failed_build_leaves_nothing_alive():
    train, test = correlated_dataset(3, n_train=20, n_test=5, n_labels=2,
                                     n_features=2)

    class Local:
        pass

    refs, errors = [], []

    def build():
        local = Local()
        refs.append(weakref.ref(local))
        raise ValueError("no such unit")

    # without the cyclic collector, only reference counts free the error
    # and the frames its traceback holds, the build's among them
    gc.disable()
    try:
        table = FitUnits(train, test, [["key"]] * 3)
        for _ in range(3):
            try:
                table.take("key", build, train)
            except ValueError as e:
                errors.append(str(e))
            table.done()
        assert errors == ["no such unit"] * 3 and len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()
