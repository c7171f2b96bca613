"""Command-line driver: exit codes, artifact payloads, byte determinism."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import tailgraph
from tailgraph import cli, limits
from tailgraph import husler_reiss as hr
from tailgraph.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFY,
    main,
)

from conftest import COLLINEAR_GAMMA, GAUSS_2TREE, perfbench_workloads


@pytest.fixture(scope="module")
def configs(pytestconfig):
    return pytestconfig.rootpath / "configs"


def run(*args):
    return CliRunner().invoke(main, list(args))


def payload(result):
    return json.loads(result.output)


#: Per run of ``graph``, ``derive`` and ``verify --n 2000`` on each shipped
#: config: the sha256 of its exit code, stdout and ``--out`` files (see
#: :func:`cli_digest`).  A digest changes only together with a CHANGES.md
#: note that names the artifacts that moved and why.
CLI_DIGESTS = {
    "derive gaussian_chain":
        "03aa524c83ae79a7746c225d7e996efd3e57f6b37559065f10219f757e2d7446",
    "derive gaussian_short_chain":
        "0a80dd42f0f3c080dbb1d24d287beb83133b45e09c74ab80ac0d79ccdc972d3f",
    "derive goldner_harary":
        "edd1179a22fb4255eed83b08b0609d059e1b924705a3c9f1847386d411d26d33",
    "derive hr_block_tree":
        "9754775f6e163d37dfddc31a7bef2f3d9f3656d076c89e470d7ccfa0274679bb",
    "derive hr_chain":
        "212f3dc8d341d6ad77e6ed6b8555d0471e801c84346eb867f7e9648ce38a7968",
    "derive mixed_tree":
        "085bc0976027ad49b479c22ef1d900e1f5cd7eaf319b40a7b19489536d3db8f1",
    "derive non_chordal":
        "edd1179a22fb4255eed83b08b0609d059e1b924705a3c9f1847386d411d26d33",
    "graph gaussian_chain":
        "be4df678d663628af2295a72b835fbe0133a5c9378181232d2f07910d0ae9dc4",
    "graph gaussian_short_chain":
        "a035fc3e7f644abd9db5ba0e726a0748f4ae6b40ba37603a38d20c3a2d640b39",
    "graph goldner_harary":
        "ad0f6765cd7020871885f75c431d4b9bb48e7a85d45ba0253dbc62990ed253be",
    "graph hr_block_tree":
        "b22adbb29228fef659b4d415aa5a4853b6e78b0d13e541c71f266a2ebf427b9d",
    "graph hr_chain":
        "50150fa4363d7271841d578654350346e24458441d195cec56f0b8b73930b5c8",
    "graph mixed_tree":
        "11201f2c8d63e05699dd5027ee15b04aac79994ad347324ee76fc7adc116d94f",
    "graph non_chordal":
        "6b010a5e8586d8a833d462d8c69212bf005ab924f9775cab5dd7e43dcbef7df6",
    "verify --n 2000 gaussian_chain":
        "72dac5bbccf3e208d0871db5ea7042a65430a9295f272c339133cecb53ca6502",
    "verify --n 2000 gaussian_short_chain":
        "7f47386a19ec40ae8887f08cbb867ec2cdbfebe5667681de902f0b003e78aa14",
    "verify --n 2000 goldner_harary":
        "edd1179a22fb4255eed83b08b0609d059e1b924705a3c9f1847386d411d26d33",
    "verify --n 2000 hr_block_tree":
        "e16d92d645b192fe6078552d48e59c05ec66c74db3713b47b1b02d29c0050f91",
    "verify --n 2000 hr_chain":
        "88c9dfd92de1069ed9a673308c5ac601c7e1bdc60adf05420471dbd38d9ebf54",
    "verify --n 2000 mixed_tree":
        "3285befd8a47dd64f1cccd626b85c1fa1e20ee27084c37a8fde38758cf74c0e0",
    "verify --n 2000 non_chordal":
        "edd1179a22fb4255eed83b08b0609d059e1b924705a3c9f1847386d411d26d33",
}


def cli_digest(args, out: Path) -> str:
    res = CliRunner().invoke(main, [*args, "--out", str(out)])
    digest = hashlib.sha256(f"exit {res.exit_code}\n".encode())
    digest.update(res.stdout_bytes)
    for path in sorted(out.iterdir()) if out.exists() else ():
        digest.update(f"\n{path.name}\n".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_shipped_cli_outputs_are_pinned(configs, tmp_path):
    got = {}
    for cfg in sorted(configs.glob("*.json")):
        for cmd, *flags in (["graph"], ["derive"], ["verify", "--n", "2000"]):
            name = " ".join([cmd, *flags, cfg.stem])
            got[name] = cli_digest([cmd, "--config", str(cfg), *flags],
                                   tmp_path / name.replace(" ", "_"))
    assert got == CLI_DIGESTS


#: ``verify --n 2000 --t-levels 4,8`` on the seed-1 Gaussian triangle tree
#: of ``perfbench/workloads.py``, digested as by :func:`cli_digest`: the
#: one config in which several cliques hang off one separator vertex.
TREE_DIGEST = "e79bdc9ebc8fab63d07dae349b316b2845c2d5018aae653fdc7b25ca8bf785f3"


@pytest.mark.parametrize("workers", ["1", "3"])
def test_gauss_tree_verify_is_pinned(pytestconfig, tmp_path, workers):
    cfg = tmp_path / "gauss_tree.json"
    cfg.write_text(json.dumps(perfbench_workloads(pytestconfig.rootpath).gauss_tree(1)))
    got = cli_digest(["verify", "--config", str(cfg), "--n", "2000",
                      "--t-levels", "4,8", "--workers", workers], tmp_path / "out")
    assert got == TREE_DIGEST


#: ``derive`` and ``verify --n 2000`` of the Gaussian 2-tree of triangles
#: (1,2,3), (2,3,4), (3,4,5) (``GAUSS_2TREE``) at either end, digested as by
#: :func:`cli_digest`: each later clique is drawn given a two-vertex
#: separator, and each of its moment steps has two free separator columns.
GAUSS_2TREE_DIGESTS = {
    "derive --v 1":
        "cb2bb44cd5565d2b715194ae16478b1406988060e67854ce064ed5290a9b3430",
    "verify --n 2000 --v 1":
        "7c0855bb9e1b4fd20c57a4be79453f2e5b5b725b6fa100457bbd6e30fa8952ea",
    "derive --v 5":
        "7d4c6ee21cfbf1785b8d827048881ab28462d40db0490837e6103b60324bbf8d",
    "verify --n 2000 --v 5":
        "14de06990a2829608195096100449dac7ee0c681f993491ae0474f9028d800da",
}


@pytest.mark.parametrize("name", sorted(GAUSS_2TREE_DIGESTS))
def test_gauss_2tree_outputs_are_pinned(tmp_path, name):
    cfg = tmp_path / "gauss_2tree.json"
    cfg.write_text(json.dumps(GAUSS_2TREE))
    cmd, *flags = name.split()
    if cmd == "derive":
        doc = payload(run("derive", "--config", str(cfg), *flags))
        assert doc["verdict"]["kind"] == "theorem_1"
        for upd in doc["tail_model"]["updates"]:
            assert len(upd["separator"]) == 2
            assert all(p != 0.0 for p in upd["psi"]["values"][0])
    got = cli_digest([cmd, "--config", str(cfg), *flags], tmp_path / "out")
    assert got == GAUSS_2TREE_DIGESTS[name]


def test_commands_do_not_retain_their_stdout(configs):
    """A caller that redirects stdout per command, as an embedding
    process does, gets each stream freed once it drops it."""
    streams = []
    for args in (["graph"], ["derive"], ["graph", "--root", "0"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                main([*args, "--config", str(configs / "hr_chain.json")],
                     standalone_mode=False)
            except SystemExit as exc:  # the error payload path
                assert exc.code == EXIT_CONFIG
        assert buf.getvalue()
        streams.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [ref() for ref in streams] == [None, None, None]


# ------------------------------------------------------------------ graph


def test_graph_reports_chordal_structure(configs):
    res = run("graph", "--config", str(configs / "goldner_harary.json"))
    assert res.exit_code == EXIT_OK
    doc = payload(res)
    assert doc["chordal"] is True and doc["connected"] is True
    cliques = [tuple(c) for c in doc["ordering"]["cliques"]]
    assert len(cliques) == 8
    assert all(len(c) == 4 for c in cliques)
    assert sum(1 for c in cliques if 2 in c) == 6
    assert len(doc["junction_tree"]["edges"]) == 7
    assert len(doc["config_hash"]) == 64


def test_graph_non_chordal_witness(configs):
    res = run("graph", "--config", str(configs / "non_chordal.json"))
    assert res.exit_code == EXIT_PRECONDITION
    doc = payload(res)
    assert doc["error"]["type"] == "NotChordal"
    witness = doc["error"]["witness"]
    assert len(witness) >= 4  # a chordless cycle
    assert set(witness) <= {1, 2, 3, 4}


def test_graph_out_dir_mirrors_stdout(configs, tmp_path):
    out = tmp_path / "artifacts"
    res = run("graph", "--config", str(configs / "goldner_harary.json"),
              "--out", str(out))
    assert res.exit_code == EXIT_OK
    assert (out / "graph.json").read_text() == res.output


def test_graph_missing_config_file(tmp_path):
    res = run("graph", "--config", str(tmp_path / "nope.json"))
    assert res.exit_code == EXIT_CONFIG
    assert payload(res)["error"]["type"] == "ConfigError"


# ----------------------------------------------------------------- derive


def test_derive_single_vertex_recursion_route(configs):
    res = run("derive", "--config", str(configs / "hr_chain.json"))
    assert res.exit_code == EXIT_OK
    doc = payload(res)
    assert doc["verdict"]["kind"] == "theorem_1"
    assert doc["v"] == 1
    normings = doc["tail_model"]["normings"]
    assert normings["2"]["a_power"] == "1" and normings["2"]["b_power"] == "0"
    assert "limit_moments" in doc and "conventions" in doc


def test_derive_tail_noise_route(configs):
    res = run("derive", "--config", str(configs / "mixed_tree.json"))
    assert res.exit_code == EXIT_OK
    doc = payload(res)
    assert doc["verdict"]["kind"] == "tail_noise_required"
    assert doc["verdict"]["witness_clique"] == [1, 2]
    assert len(doc["tail_noise"]["blocks"]) == 2


def test_derive_subnormal_pair_variogram(configs, tmp_path):
    """A pair with Γ = 1e-310 is a valid clique; its update is
    (−Γ/2, Γ, 1) with no matrix to invert."""
    doc = json.loads((configs / "hr_chain.json").read_text())
    doc["cliques"][1]["variogram"] = [[0.0, 1e-310], [1e-310, 0.0]]
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    res = run("derive", "--config", str(path))
    assert res.exit_code == EXIT_OK
    assert payload(res)["limit_moments"]["mean"]["values"] == [-0.65, -0.65]


def test_derive_requires_a_conditioning_vertex(configs):
    res = run("derive", "--config", str(configs / "goldner_harary.json"))
    assert res.exit_code == EXIT_CONFIG
    assert payload(res)["error"]["type"] == "ConfigError"


#: Clique matrices that are well formed in shape but not in value: a
#: 4-clique whose Σ^{(2)} is numerically singular, a non-symmetric pair
#: variogram and a triangle correlation that is not positive definite.
_BAD_VALUE_CLIQUES = {
    "collinear": {"vertices": [1, 2, 3, 4], "family": "husler_reiss",
                  "variogram": COLLINEAR_GAMMA.tolist()},
    "asymmetric_pair": {"vertices": [1, 2], "family": "husler_reiss",
                        "variogram": [[0.0, 1.0], [1.2, 0.0]]},
    "indefinite_triangle": {"vertices": [1, 2, 3], "family": "gaussian",
                            "correlation": [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9],
                                            [-0.9, 0.9, 1.0]]},
}


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_numerically_singular_clique_never_tracebacks(tmp_path, command):
    """Every conditioning vertex ends in a config-error payload, raised
    when the clique models are built, before any derivation, that names
    the clique spec and the family's own error."""
    for case, clique in _BAD_VALUE_CLIQUES.items():
        k = len(clique["vertices"])
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps({
            "graph": {"vertices": k, "edges": [[i, j] for i in range(1, k + 1)
                                               for j in range(i + 1, k + 1)]},
            "cliques": [clique], "v": 1, "t_levels": [2.0], "n": 500, "seed": 0,
        }))
        want = "InvalidVariogram" if clique["family"] == "husler_reiss" else "NotSPD"
        for v in range(1, k + 1):
            res = run(command, "--config", str(path), "--v", str(v))
            assert res.exit_code == EXIT_CONFIG, (case, v, res.exception)
            error = payload(res)["error"]
            assert error["type"] == "ConfigError"
            assert error["message"].startswith(f"cliques[0]: {want}: "), error


# ----------------------------------------------------------------- verify


def test_verify_passes_and_writes_tables(configs, tmp_path):
    out = tmp_path / "run"
    res = run("verify", "--config", str(configs / "gaussian_short_chain.json"),
              "--n", "20000", "--out", str(out))
    assert res.exit_code == EXIT_OK
    doc = payload(res)
    assert doc["pass"] is True
    assert doc["checks"] == {"ks_trend": True, "remainders": True}
    assert (out / "summary.json").read_text() == res.output
    ks_lines = (out / "ks_table.csv").read_text().splitlines()
    assert ks_lines[0] == "t,vertex,ks,n,threshold,pass"
    assert len(ks_lines) == 1 + 2 * 3  # two levels, three vertices
    assert (out / "moment_gaps.csv").exists()
    assert (out / "remainders.csv").exists()


def test_verify_detects_remainder_growth(configs, tmp_path):
    # reversing the analytic remainder ladder must trip the gate: the
    # error at t=10 cannot be smaller than at t=1000
    base = json.loads((configs / "gaussian_short_chain.json").read_text())
    base["tolerances"] = {"remainder_grid": [1000.0, 10.0]}
    bad = tmp_path / "reversed.json"
    bad.write_text(json.dumps(base))
    res = run("verify", "--config", str(bad), "--n", "20000")
    assert res.exit_code == EXIT_VERIFY
    doc = payload(res)
    assert doc["pass"] is False
    assert doc["checks"]["remainders"] is False
    assert doc["checks"]["ks_trend"] is True


def test_verify_byte_identical_across_workers(configs, tmp_path):
    outs = []
    for label, workers in (("a", "1"), ("b", "3")):
        out = tmp_path / label
        res = run("verify", "--config",
                  str(configs / "gaussian_short_chain.json"),
                  "--n", "20000", "--workers", workers, "--out", str(out))
        assert res.exit_code == EXIT_OK
        outs.append((out, res.output))
    (out_a, stdout_a), (out_b, stdout_b) = outs
    assert stdout_a == stdout_b
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_verify_flag_validation(configs):
    cfg = str(configs / "gaussian_short_chain.json")
    res = run("verify", "--config", cfg, "--t-levels", "8,4")
    assert res.exit_code == EXIT_CONFIG
    res = run("verify", "--config", cfg, "--t-levels", "a,b")
    assert res.exit_code == EXIT_CONFIG
    res = run("verify", "--config", cfg, "--n", "0")
    assert res.exit_code == EXIT_CONFIG
    res = run("verify", "--config", cfg, "--workers", "0")
    assert res.exit_code == EXIT_CONFIG
    res = run("verify")
    assert res.exit_code == 2  # click usage error: --config is required


def test_verify_needs_two_rows(configs, tmp_path):
    """One row has no sample covariance: exit 2 with a ConfigError, no
    output file and no numpy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run("verify", "--config", str(configs / "gaussian_chain.json"),
                  "--n", "1", "--out", str(tmp_path / "out"))
    assert res.exit_code == EXIT_CONFIG
    assert payload(res)["error"]["type"] == "ConfigError"
    assert "n must be an integer >= 2" in payload(res)["error"]["message"]
    assert not any((tmp_path / "out").glob("*"))
    assert caught == []


@pytest.mark.parametrize("levels", ["nan", "inf", "2,nan", "2,inf", "-inf",
                                    "2,2"])
def test_verify_rejects_non_finite_levels(configs, levels):
    res = run("verify", "--config", str(configs / "gaussian_short_chain.json"),
              "--n", "200", "--t-levels", levels)
    assert res.exit_code == EXIT_CONFIG
    assert payload(res)["error"]["type"] == "ConfigError"


def test_verify_rejects_infinite_config_level(configs, tmp_path):
    text = (configs / "gaussian_short_chain.json").read_text()
    doc = json.loads(text)
    doc["t_levels"] = ["__INF__"]
    bad = tmp_path / "infinite.json"
    bad.write_text(json.dumps(doc).replace('"__INF__"', "Infinity"))
    res = run("verify", "--config", str(bad), "--n", "200")
    assert res.exit_code == EXIT_CONFIG
    assert payload(res)["error"]["type"] == "ConfigError"


def test_verify_rejects_a_string_config_level(configs, tmp_path):
    doc = json.loads((configs / "gaussian_short_chain.json").read_text())
    doc["t_levels"] = ["2"]
    bad = tmp_path / "string.json"
    bad.write_text(json.dumps(doc))
    res = run("verify", "--config", str(bad), "--n", "200")
    assert res.exit_code == EXIT_CONFIG == 2
    assert payload(res)["error"] == {
        "type": "ConfigError",
        "message": "'t_levels': level '2' is not a real number"}


def test_verify_beyond_double_range_is_a_numerical_breakdown(configs, tmp_path):
    """At t = 705 some root states pass ~709.78, where the Fréchet state
    overflows: verify stops with exit 3 and emits no numpy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run("verify", "--config", str(configs / "hr_chain.json"),
                  "--n", "2000", "--t-levels", "705", "--out", str(tmp_path))
    assert res.exit_code == EXIT_PRECONDITION
    assert payload(res)["error"]["type"] == "NumericalBreakdown"
    assert [str(w.message) for w in caught] == []


# ------------------------------------------------------- output documents


def json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


#: Commands that do not exit 0 on a shipped config, and why: goldner_harary
#: has no conditioning vertex and non_chordal is not chordal.
SWEEP_EXITS = {
    ("goldner_harary", "derive"): EXIT_CONFIG,
    ("goldner_harary", "verify"): EXIT_CONFIG,
    ("non_chordal", "graph"): EXIT_PRECONDITION,
    ("non_chordal", "derive"): EXIT_CONFIG,
    ("non_chordal", "verify"): EXIT_CONFIG,
    ("hr_chain", "verify --t-levels 705"): EXIT_PRECONDITION,
}


@pytest.fixture(scope="module")
def sweep(configs):
    """Every command on every shipped config, with warnings raised as
    errors: each run's exit code and exception, and every document the
    runs emitted."""
    outcomes, docs = {}, []
    dump = cli._dump
    runs = [(path.stem, command, args)
            for path in sorted(configs.glob("*.json"))
            for command, args in (("graph", []), ("derive", []),
                                  ("verify", ["--n", "2000"]))]
    runs.append(("hr_chain", "verify --t-levels 705",
                 ["--n", "2000", "--t-levels", "705"]))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(cli, "_dump", lambda doc: docs.append(doc) or dump(doc))
        for stem, command, args in runs:
            res = run(command.split()[0], "--config",
                      str(configs / f"{stem}.json"), *args)
            outcomes[stem, command] = (res.exit_code, res.exception)
    return outcomes, docs


def test_shipped_configs_run_with_warnings_as_errors(sweep):
    outcomes, _ = sweep
    assert len(outcomes) == 22
    for key, (code, exc) in outcomes.items():
        expected = SWEEP_EXITS.get(key, EXIT_OK)
        assert code == expected, f"{key}: exit {code}, {exc!r}"


def test_dump_matches_json_dumps_on_shipped_documents(sweep):
    _, docs = sweep
    assert len(docs) == 24  # one per run, and the mrv documents of 2 verifies
    for doc in docs:
        assert cli._dump(doc) == json_dumps(doc)


_floats = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -2.2e-308, 1e300]),
)
_leaves = st.one_of(_floats, st.integers(), st.booleans(), st.none(),
                    st.text(max_size=8), st.lists(_floats, max_size=6))
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=30,
)


@given(st.dictionaries(st.text(max_size=6), _documents, max_size=5))
def test_dump_is_json_dumps(doc):
    assert cli._dump(doc) == json_dumps(doc)


def test_dump_rejects_what_json_rejects():
    doc = {"index": [1, np.int64(2)], "values": [0.5]}
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        json_dumps(doc)
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cli._dump(doc)


# ------------------------------------------------------------ limit walks


@pytest.fixture
def walk_counter(monkeypatch):
    calls = []
    walk, noise = limits._walk, limits.build_tail_noise

    def counted_walk(*args, **kwargs):
        calls.append("walk")
        return walk(*args, **kwargs)

    def counted_noise(*args, **kwargs):
        calls.append("noise")
        return noise(*args, **kwargs)

    monkeypatch.setattr(limits, "_walk", counted_walk)
    monkeypatch.setattr(limits, "build_tail_noise", counted_noise)
    return calls


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_theorem_1_route_walks_once(configs, walk_counter, command):
    args = ["--n", "500", "--t-levels", "2,4"] if command == "verify" else []
    res = run(command, "--config", str(configs / "hr_chain.json"), *args)
    assert res.exit_code == EXIT_OK
    assert walk_counter == ["walk"]


def test_tail_noise_route_walks_once(configs, walk_counter):
    res = run("verify", "--config", str(configs / "mixed_tree.json"),
              "--n", "500", "--t-levels", "8,20")
    assert res.exit_code in (EXIT_OK, EXIT_VERIFY)
    assert payload(res)["verdict"]["kind"] == "tail_noise_required"
    assert walk_counter == ["walk", "noise"]


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_tail_noise_route_computes_moments_once(configs, monkeypatch, command):
    calls = []
    moments = limits._moments

    def counted(*args, **kwargs):
        calls.append(1)
        return moments(*args, **kwargs)

    monkeypatch.setattr(limits, "_moments", counted)
    args = ["--n", "500", "--t-levels", "8,20"] if command == "verify" else []
    res = run(command, "--config", str(configs / "mixed_tree.json"), *args)
    assert payload(res)["verdict"]["kind"] == "tail_noise_required"
    assert len(calls) == 1


def test_hr_chain_verify_kernel_rows_are_pinned(configs, monkeypatch):
    """``verify`` on the HR chain (seed 1, n = 10,000, t = 2, 4, 6)
    inverts 60,000 rows with 254,569 pair-kernel rows: 197,146 Newton
    rows, which take the slope, and 57,423 certification-probe and
    bracket-top rows, which do not.  Moving a kernel call from one
    caller to another keeps these counts; changing the work moves them."""
    rows = {"newton": 0, "plain": 0, "inverted": 0}
    kernel, invert = hr.pair_kernel, hr._invert_pair

    def counting_kernel(a, y1, x, slope=False):
        rows["newton" if slope else "plain"] += x.size
        return kernel(a, y1, x, slope=slope)

    def counting_invert(model, s, x1, u):
        rows["inverted"] += u.size
        return invert(model, s, x1, u)

    monkeypatch.setattr(hr, "pair_kernel", counting_kernel)
    monkeypatch.setattr(hr, "_invert_pair", counting_invert)
    res = run("verify", "--config", str(configs / "hr_chain.json"), "--seed",
              "1", "--n", "10000", "--t-levels", "2,4,6")
    assert res.exit_code == EXIT_OK
    assert rows == {"newton": 197_146, "plain": 57_423, "inverted": 60_000}


_SCIPY_FREE_RUNS = """
import contextlib, io, sys
from tailgraph import cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print("import", scipy_loaded())
for args in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(args.split(), standalone_mode=False)
        except SystemExit:
            pass
    print(args, scipy_loaded())
"""


def _scipy_modules_after(runs):
    """``label [scipy modules]`` lines of one process that imports the CLI
    and then makes each run in turn."""
    src = str(Path(tailgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUNS, *runs],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120)
    return out.stdout.splitlines()


def test_cli_import_leaves_scipy_stats_unloaded(configs, pytestconfig, tmp_path):
    """Importing scipy costs more than most ``graph`` and ``derive`` runs,
    which need none of it: the CLI import, ``graph`` on every shipped
    config, HR or mixed ``derive``, and ``derive`` on an HR 2-tree (whose
    two-vertex separators need one-row solves) leave every scipy module
    unloaded (scipy.stats, the slowest, is never used at all)."""
    two_tree = tmp_path / "hr_tri.json"
    two_tree.write_text(json.dumps(perfbench_workloads(pytestconfig.rootpath).hr_tri(1)))
    runs = [f"graph --config {path}" for path in sorted(configs.glob("*.json"))]
    runs += [f"derive --config {configs / name}.json"
             for name in ("hr_chain", "hr_block_tree", "mixed_tree")]
    runs += [f"derive --config {two_tree}"]
    assert len(runs) == 11
    assert _scipy_modules_after(runs) == [f"{label} []"
                                          for label in ["import", *runs]]


def test_verify_loads_scipy_special_but_not_scipy_linalg(configs, tmp_path):
    """``verify`` needs scipy.special for its quantiles, CDFs and KS
    tables; no HR pair chain's solve reaches scipy.linalg."""
    *_, loaded = _scipy_modules_after(
        [f"verify --config {configs / 'hr_chain.json'} --n 200 --out {tmp_path}"])
    assert "'scipy.special'" in loaded and "'scipy.linalg" not in loaded


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_verify_rejects_a_seed_outside_64_bits(configs, seed):
    res = run("verify", "--config", str(configs / "hr_chain.json"),
              "--n", "200", "--seed", seed)
    assert res.exit_code == EXIT_CONFIG
    assert payload(res)["error"] == {
        "type": "ConfigError",
        "message": f"--seed must be a 64-bit nonnegative integer, got {seed}"}


def test_verify_accepts_the_largest_seed(configs):
    res = run("verify", "--config", str(configs / "gaussian_short_chain.json"),
              "--n", "200", "--seed", str(2 ** 64 - 1))
    assert res.exit_code in (EXIT_OK, EXIT_VERIFY)
    assert payload(res)["seed"] == 2 ** 64 - 1


# --------------------------------------------------------- failure payloads


TRIANGLE_R = [[1.0, 0.5, 0.4], [0.5, 1.0, 0.3], [0.4, 0.3, 1.0]]


def _write_config(tmp_path, n, edges, cliques):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"graph": {"vertices": n, "edges": edges},
                                "cliques": cliques, "v": 1}))
    return str(path)


def test_derive_keeps_the_verdict_when_the_tail_noise_fails(tmp_path):
    """The walk stops at the HR pair (2, 3), which needs the tail noise;
    the Gaussian triangles share the separator (4, 5), so the graph is no
    block graph and the tail noise cannot be built."""
    path = _write_config(
        tmp_path, 6, [[1, 2], [2, 3], [3, 4], [3, 5], [4, 5], [4, 6], [5, 6]],
        [{"vertices": [1, 2], "family": "gaussian",
          "correlation": [[1.0, 0.7], [0.7, 1.0]]},
         {"vertices": [2, 3], "family": "husler_reiss",
          "variogram": [[0.0, 1.0], [1.0, 0.0]]},
         {"vertices": [3, 4, 5], "family": "gaussian", "correlation": TRIANGLE_R},
         {"vertices": [4, 5, 6], "family": "gaussian",
          "correlation": [[1.0, 0.3, 0.5], [0.3, 1.0, 0.6], [0.5, 0.6, 1.0]]}])
    res = run("derive", "--config", path)
    assert res.exit_code == EXIT_PRECONDITION
    doc = payload(res)
    assert doc["error"]["type"] == "NotBlockGraph"
    assert doc["partial"]["kind"] == "tail_noise_required"
    assert doc["partial"]["witness_clique"] == [2, 3]
    assert len(doc["config_hash"]) == 64


def test_derive_has_no_verdict_when_the_walk_fails(tmp_path):
    """A Gaussian triangle glued to an HR triangle on (2, 3): the walk
    itself rejects the separator, before any verdict."""
    path = _write_config(
        tmp_path, 4, [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]],
        [{"vertices": [1, 2, 3], "family": "gaussian", "correlation": TRIANGLE_R},
         {"vertices": [2, 3, 4], "family": "husler_reiss",
          "variogram": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]}])
    res = run("derive", "--config", path)
    assert res.exit_code == EXIT_PRECONDITION
    doc = payload(res)
    assert doc["error"]["type"] == "IncompatibleSeparators"
    assert doc["partial"] is None


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_conditioning_vertex_outside_the_graph(configs, command):
    res = run(command, "--config", str(configs / "hr_chain.json"), "--v", "9")
    assert res.exit_code == EXIT_CONFIG
    assert payload(res) == {"error": {"type": "ConfigError",
                                      "message": "v=9 outside 1..3"}}


@pytest.mark.parametrize("family, params", [
    ("husler_reiss", {"variogram": [[0.0]]}),
    ("gaussian", {"correlation": [[1.0]]}),
])
@pytest.mark.parametrize("command", ["derive", "verify"])
def test_one_vertex_graph_says_the_limit_vector_is_empty(tmp_path, command,
                                                          family, params):
    path = _write_config(tmp_path, 1, [],
                         [{"vertices": [1], "family": family, **params}])
    res = run(command, "--config", path)
    assert res.exit_code == EXIT_PRECONDITION
    assert payload(res)["error"] == {
        "type": "EmptySubset",
        "message": "the graph has no vertex besides v = 1, so the limit "
                   "vector is empty"}
