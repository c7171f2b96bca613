"""Strict JSON config ingestion for the command-line driver."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from tailgraph import gaussian as gs
from tailgraph import husler_reiss as hr
from tailgraph.cli import EXIT_CONFIG, main
from tailgraph.config import (
    DEFAULT_N,
    DEFAULT_SEED,
    DEFAULT_T_LEVELS,
    load_config,
    parse_config,
)
from tailgraph.errors import ConfigError

CHAIN_GRAPH = {"vertices": 3, "edges": [[1, 2], [2, 3]]}


def has_models(cfg):
    return cfg.clique_specs is not None or cfg.correlation is not None


def chain_doc(**extra):
    doc = {"graph": dict(CHAIN_GRAPH)}
    doc.update(extra)
    return doc


def hr_cliques():
    return [
        {"vertices": [1, 2], "family": "husler_reiss",
         "variogram": [[0.0, 1.3], [1.3, 0.0]]},
        {"vertices": [2, 3], "family": "husler_reiss",
         "variogram": [[0.0, 0.7], [0.7, 0.0]]},
    ]


# ------------------------------------------------------------ happy paths


def test_minimal_config_defaults():
    cfg = parse_config(chain_doc())
    assert cfg.graph.n == 3
    assert cfg.v is None
    assert cfg.t_levels == DEFAULT_T_LEVELS
    assert cfg.n == DEFAULT_N
    assert cfg.seed == DEFAULT_SEED
    assert cfg.out is None and cfg.notes is None
    assert cfg.tolerances == {"ks_const": 1.95, "trend_slack": 1.2,
                              "remainder_grid": (10.0, 100.0, 1000.0)}
    assert not has_models(cfg)
    with pytest.raises(ConfigError):
        cfg.models()


def test_per_clique_specs_build_models():
    cfg = parse_config(chain_doc(cliques=hr_cliques(), v=1))
    assert has_models(cfg)
    models = cfg.models()
    assert set(models) == {(1, 2), (2, 3)}
    assert isinstance(models[(1, 2)], hr.HuslerReissModel)
    assert models[(1, 2)].variogram.entry(1, 2) == 1.3


def test_whole_graph_correlation_restricts_to_cliques():
    rho = [[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]]
    cfg = parse_config(chain_doc(correlation=rho, v=1))
    models = cfg.models()
    assert set(models) == {(1, 2), (2, 3)}
    m = models[(2, 3)]
    assert isinstance(m, gs.GaussianCopulaModel)
    assert np.allclose(m.correlation.values, [[1.0, 0.5], [0.5, 1.0]])


def test_whole_graph_correlation_values_are_config_errors():
    """A whole-graph correlation that is not positive definite is bad
    config input, like a bad shape, and the message names it."""
    rho = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
    with pytest.raises(ConfigError, match="^the whole-graph correlation: NotSPD: "):
        parse_config(chain_doc(correlation=rho, v=1)).models()


def test_ordering_root_defaults_to_v_then_first_vertex():
    cfg = parse_config(chain_doc(v=2))
    assert cfg.ordering().root == 2
    assert cfg.ordering(root=3).root == 3
    assert parse_config(chain_doc()).ordering().root == 1


def test_mixed_family_cliques():
    doc = {
        "graph": {"vertices": 3, "edges": [[1, 2], [2, 3]]},
        "cliques": [
            {"vertices": [1, 2], "family": "husler_reiss",
             "variogram": [[0.0, 1.0], [1.0, 0.0]]},
            {"vertices": [2, 3], "family": "gaussian",
             "correlation": [[1.0, 0.8], [0.8, 1.0]]},
        ],
    }
    models = parse_config(doc).models()
    assert models[(1, 2)].family == "husler_reiss"
    assert models[(2, 3)].family == "gaussian"


def test_tolerance_overrides():
    cfg = parse_config(chain_doc(tolerances={
        "ks_const": 2.5, "trend_slack": 1.5, "remainder_grid": [5, 50]}))
    assert cfg.tolerances == {"ks_const": 2.5, "trend_slack": 1.5,
                              "remainder_grid": (5.0, 50.0)}


# -------------------------------------------------------------- strictness


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(chain_doc(bogus=1))
    bad_clique = hr_cliques()
    bad_clique[0]["extra"] = True
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(chain_doc(cliques=bad_clique))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(chain_doc(tolerances={"ks": 2.0}))


def test_clique_spec_validation():
    base = chain_doc()
    bad = [
        {"vertices": [2, 1], "family": "husler_reiss",
         "variogram": [[0.0, 1.0], [1.0, 0.0]]},  # unsorted
        {"vertices": [1, 1], "family": "husler_reiss",
         "variogram": [[0.0, 1.0], [1.0, 0.0]]},  # repeated
        {"vertices": [1, 2], "family": "brown_resnick",
         "variogram": [[0.0, 1.0], [1.0, 0.0]]},  # unknown family
        {"vertices": [1, 2], "family": "husler_reiss",
         "correlation": [[1.0, 0.5], [0.5, 1.0]]},  # wrong parameter key
        {"vertices": [1, 2], "family": "gaussian",
         "variogram": [[0.0, 1.0], [1.0, 0.0]]},  # wrong parameter key
        {"vertices": [1, 2], "family": "husler_reiss",
         "variogram": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]},  # wrong shape
    ]
    for spec in bad:
        with pytest.raises(ConfigError):
            parse_config({**base, "cliques": [spec]})


def test_cliques_must_cover_maximal_cliques_exactly():
    only_first = [hr_cliques()[0]]
    with pytest.raises(ConfigError, match="missing specs"):
        parse_config(chain_doc(cliques=only_first)).models()
    extra = hr_cliques() + [{"vertices": [1, 3], "family": "husler_reiss",
                             "variogram": [[0.0, 2.0], [2.0, 0.0]]}]
    with pytest.raises(ConfigError, match="not maximal"):
        parse_config(chain_doc(cliques=extra)).models()
    dup = hr_cliques() + [hr_cliques()[0]]
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(chain_doc(cliques=dup)).models()


def test_cliques_and_correlation_are_exclusive():
    rho = [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
    with pytest.raises(ConfigError, match="not both"):
        parse_config(chain_doc(cliques=hr_cliques(), correlation=rho))


def test_scalar_field_validation():
    for bad in [
        chain_doc(v=0),
        chain_doc(v=4),
        chain_doc(v="1"),
        chain_doc(t_levels=[]),
        chain_doc(t_levels=[4.0, 2.0]),
        chain_doc(t_levels=[0.0, 2.0]),
        chain_doc(t_levels=[float("inf")]),
        chain_doc(t_levels=[2.0, float("nan")]),
        chain_doc(t_levels=["2"]),
        chain_doc(t_levels=[2.0, 2.0]),
        chain_doc(n=0),
        chain_doc(seed=-1),
        chain_doc(notes=12),
        chain_doc(tolerances={"trend_slack": 0.9}),
        chain_doc(tolerances={"remainder_grid": [10, float("inf")]}),
        chain_doc(tolerances={"remainder_grid": [float("nan")]}),
    ]:
        with pytest.raises(ConfigError):
            parse_config(bad)


def _with_clique(field, value):
    cliques = hr_cliques()
    cliques[0][field] = value
    return chain_doc(cliques=cliques, v=1)


@pytest.mark.parametrize("doc", [
    pytest.param({"graph": {"vertices": True, "edges": []}},
                 id="graph_vertices_bool"),
    pytest.param({"graph": {"vertices": [True, 2], "edges": [[1, 2]]}},
                 id="vertex_list_bool"),
    pytest.param({"graph": {"vertices": 3, "edges": [[True, 2], [2, 3]]}},
                 id="edge_endpoint_bool"),
    pytest.param(chain_doc(v=True), id="v"),
    pytest.param(chain_doc(n=True), id="n"),
    pytest.param(chain_doc(seed=False), id="seed"),
    pytest.param(chain_doc(t_levels=[True, 2]), id="t_level_bool"),
    pytest.param(chain_doc(t_levels=[10 ** 400]), id="t_level_huge"),
    pytest.param(chain_doc(tolerances={"ks_const": float("inf")}),
                 id="ks_const_inf"),
    pytest.param(chain_doc(tolerances={"ks_const": 10 ** 400}),
                 id="ks_const_huge"),
    pytest.param(chain_doc(tolerances={"ks_const": True}), id="ks_const_bool"),
    pytest.param(chain_doc(tolerances={"trend_slack": float("inf")}),
                 id="trend_slack_inf"),
    pytest.param(chain_doc(tolerances={"trend_slack": True}),
                 id="trend_slack_bool"),
    pytest.param(chain_doc(tolerances={"remainder_grid": [True, 10]}),
                 id="remainder_grid_bool"),
    pytest.param(_with_clique("vertices", [True, 2]), id="clique_vertex_bool"),
    pytest.param(_with_clique("variogram", [[False, 1.3], [1.3, False]]),
                 id="variogram_bool"),
    pytest.param(_with_clique("variogram", [[0.0, "1.3"], ["1.3", 0.0]]),
                 id="variogram_str"),
    pytest.param(chain_doc(correlation=[[True, 0.5, 0.25], [0.5, True, 0.5],
                                        [0.25, 0.5, True]]),
                 id="correlation_bool"),
])
def test_booleans_and_non_finite_tolerances_rejected(doc, tmp_path):
    """JSON true/false is not a number, and an infinite KS constant or
    trend slack would pass every check whatever the data."""
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["verify", "--config", str(path)])
    assert res.exit_code == EXIT_CONFIG
    assert json.loads(res.output)["error"]["type"] == "ConfigError"


# ------------------------------------------------------------------- hash


def test_config_hash_is_canonical_and_content_sensitive():
    doc = chain_doc(cliques=hr_cliques(), v=1, seed=7)
    h1 = parse_config(doc).config_hash()
    # key order must not matter
    shuffled = json.loads(json.dumps(doc))
    shuffled = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert parse_config(shuffled).config_hash() == h1
    changed = chain_doc(cliques=hr_cliques(), v=1, seed=8)
    assert parse_config(changed).config_hash() != h1


# ------------------------------------------------------------------ files


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(broken)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(chain_doc(v=1)))
    assert load_config(good).v == 1


def test_shipped_configs_parse(pytestconfig):
    from tailgraph.errors import NotChordal

    root = pytestconfig.rootpath / "configs"
    paths = sorted(root.glob("*.json"))
    assert paths, "example configs should ship with the package"
    for path in paths:
        cfg = load_config(path)
        try:
            ordering = cfg.ordering()
        except NotChordal:
            # one example exists precisely to demonstrate the witness
            assert not has_models(cfg)
            continue
        if has_models(cfg):
            models = cfg.models(ordering)
            assert set(models) == set(ordering.cliques)
