import json

import numpy as np
import pytest

from treedet.cli import main


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a usage error while parsing
        code = exc.code
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        if line.startswith('{"command": '):  # a certificate fails exactly when it has witnesses
            cert = json.loads(line)
            assert cert["outcome"] == ("fail" if cert["witnesses"] else "pass"), line
    return code, captured.out, captured.err


def test_count_only(capsys):
    code, out, _ = run(capsys, ["enumerate", "--d", "2", "--cycle-free", "--count-only"])
    assert code == 0 and out.strip() == "12"
    code, out, _ = run(capsys, ["enumerate", "--d", "2", "--count-only"])
    assert code == 0 and out.strip() == "20"


def test_count_only_d3(capsys):
    code, out, _ = run(capsys, ["enumerate", "--d", "3", "--cycle-free", "--count-only"])
    assert code == 0 and out.strip() == "66240"


def test_enumerate_jsonl(capsys, tmp_path):
    out_file = tmp_path / "parts.jsonl"
    code, out, _ = run(
        capsys, ["enumerate", "--d", "2", "--cycle-free", "--out", str(out_file)]
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["outcome"] == "pass" and cert["numbers"]["count"] == 12
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 12
    first = json.loads(lines[0])
    assert set(first) == {"d", "n", "colors"} and len(first["colors"]) == 6


def test_enumerate_stream_and_guard(capsys):
    code, out, _ = run(capsys, ["enumerate", "--d", "1"])
    assert code == 0 and json.loads(out.strip()) == {"colors": [0], "d": 1, "n": 2}
    code, _, err = run(capsys, ["enumerate", "--d", "4", "--count-only"])
    assert code == 2 and "infeasible" in err


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("cycle_free", [False, True], ids=["homogeneous", "cycle-free"])
def test_enumerate_lines_equal_partition_line(capsys, tmp_path, d, cycle_free):
    from treedet.cli import _partition_line
    from treedet.enumeration import enumerate_partitions

    pset = enumerate_partitions(d, cycle_free=cycle_free)
    flags = ["enumerate", "--d", str(d)] + (["--cycle-free"] if cycle_free else [])
    code, out, _ = run(capsys, flags)
    assert code == 0
    out_file = tmp_path / "parts.jsonl"
    code, cert, _ = run(capsys, flags + ["--out", str(out_file)])
    assert code == 0 and json.loads(cert)["numbers"]["count"] == len(pset)
    assert out_file.read_bytes() == out.encode()
    lines = out.split("\n")
    assert lines.pop() == "" and len(lines) == len(pset)
    # every row, but a stride of the 756756 homogeneous rows at d = 3
    step = 1 if len(pset) < 10 ** 5 else 37
    for i in [*range(0, len(pset), step), len(pset) - 1]:
        assert lines[i] == _partition_line(pset.partition(i))
    # the strided-out rows: same length, and their colors read back
    width = len(lines[0])
    assert {len(line) for line in lines} == {width}
    body = np.frombuffer(out.encode(), dtype=np.uint8).reshape(len(pset), width + 1)
    start, stop = len('{"colors":['), width - len(f'],"d":{d},"n":{2 * d}}}')
    assert np.array_equal(body[:, start:stop:2] - ord("0"), pset.colors)


def test_flip_roundtrip(capsys, tmp_path):
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps({"d": 2, "n": 4, "colors": [0, 1, 0, 0, 1, 1]}))
    code, out, _ = run(
        capsys, ["flip", "--d", "2", "--partition", str(p0), "--face", "1", "2", "3"]
    )
    assert code == 0
    flipped = json.loads(out)
    assert flipped["colors"] == [1, 0, 0, 0, 1, 1]
    back = tmp_path / "back.json"
    back.write_text(out)
    code, out, _ = run(
        capsys, ["flip", "--d", "2", "--partition", str(back), "--face", "3", "1", "2"]
    )
    assert code == 0 and json.loads(out)["colors"] == [0, 1, 0, 0, 1, 1]


def test_signature_command(capsys, tmp_path):
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps({"d": 2, "n": 4, "colors": [0, 1, 0, 0, 1, 1]}))
    code, out, _ = run(capsys, ["signature", "--d", "2", "--partition", str(p0)])
    assert code == 0 and out.strip() == "+1"
    flipped = tmp_path / "f.json"
    flipped.write_text(json.dumps({"d": 2, "n": 4, "colors": [1, 0, 0, 0, 1, 1]}))
    code, out, _ = run(capsys, ["signature", "--d", "2", "--partition", str(flipped)])
    assert code == 0 and out.strip() == "-1"


def test_flip_graph_certificate(capsys):
    code, out, _ = run(capsys, ["flip-graph", "--d", "2"])
    assert code == 0
    cert = json.loads(out)
    assert cert["outcome"] == "pass"
    nums = cert["numbers"]
    assert nums["class_plus"] == 6 and nums["class_minus"] == 6
    assert nums["components"] == 1 and nums["bipartite"] == 1
    assert "dimension_upper_bound_certified" not in nums  # components == 1 alone bounds nothing


def test_emat_det_pipeline(capsys, tmp_path):
    tensor = tmp_path / "unit2.json"
    code, out, _ = run(capsys, ["emat", "--d", "2", "--det-input", str(tensor)])
    assert code == 0
    first_line = out.splitlines()[0]
    assert json.loads(first_line)["colors"] == [0, 1, 0, 0, 1, 1]
    assert "e1" in out and "e2" in out
    code, out, _ = run(capsys, ["det", "--input", str(tensor)])
    assert code == 0 and out.strip() == "1"


def test_det_gfp_input(capsys, tmp_path):
    doc = {
        "d": 2,
        "field": "gfp",
        "p": 101,
        "vectors": [["1", "0"], ["0", "1"], ["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"]],
    }
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["det", "--input", str(tensor)])
    assert code == 0 and out.strip() == "1"


def test_det_rational_strings(capsys, tmp_path):
    doc = {
        "d": 2,
        "field": "rational",
        "vectors": [["1/2", "0"], ["0", "1"], ["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"]],
    }
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["det", "--input", str(tensor)])
    assert code == 0 and out.strip() == "1/2"


def test_rank_command(capsys):
    code, out, _ = run(capsys, ["rank", "--d", "2", "--p", "101"])
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, ["rank", "--d", "2", "--p", "4294967311"])
    assert code == 0 and out.strip() == "1"
    code, _, err = run(capsys, ["rank", "--d", "3", "--p", "101"])
    assert code == 2


def test_orbits_csv(capsys, tmp_path, monkeypatch):
    import treedet.cli

    # the orbit table needs only the set: no flip graph, signature or diagram
    monkeypatch.setattr(treedet.cli, "standard_context", None)
    csv_path = tmp_path / "orbits.csv"
    code, out, _ = run(capsys, ["orbits", "--d", "2", "--out", str(csv_path)])
    assert code == 0
    cert = json.loads(out)
    assert cert["outcome"] == "pass" and cert["numbers"]["orbits"] == 1
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "orbit_id,rep_code,size,stab_order,type1,type2,type3"
    assert rows[1].startswith("0,") and ",12,4," in rows[1]


def test_verify_relations_full_d2(capsys):
    code, out, _ = run(capsys, ["verify-relations", "--d", "2"])
    assert code == 0
    cert = json.loads(out)
    assert cert["numbers"] == {"instances_checked": 128, "violations": 0}


def test_verify_relations_sample_needs_seed(capsys):
    code, _, err = run(capsys, ["verify-relations", "--d", "2", "--sample", "10"])
    assert code == 2


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_sample_below_one_is_a_usage_error(capsys, sample):
    code, out, err = run(
        capsys, ["verify-relations", "--d", "2", "--sample", sample, "--seed", "1"]
    )
    assert code == 2 and out == "" and "sample of at least 1" in err
    code, out, err = run(
        capsys, ["certify-all", "--d", "2", "--seed", "1", "--sample-relations", sample]
    )
    assert code == 2 and out == "" and "sample of at least 1" in err


def test_enumerate_count_only_excludes_out(capsys, tmp_path):
    out_file = tmp_path / "parts.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--d", "2", "--count-only", "--out", str(out_file)])
    assert exc.value.code == 2 and not out_file.exists()
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_relations_sampled(capsys):
    code, out, _ = run(
        capsys, ["verify-relations", "--d", "3", "--sample", "5000", "--seed", "1"]
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["numbers"]["instances_checked"] == 5000
    assert cert["numbers"]["violations"] == 0


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, ["verify-appendix"])
    assert code == 0
    cert = json.loads(out)
    assert cert["outcome"] == "pass"
    assert cert["numbers"]["references_checked"] == 19
    assert cert["numbers"]["epsilon_samples"] == 82080
    assert cert["numbers"]["epsilon_violations"] == 0
    assert cert["numbers"]["character"] == "sgn_tau"


def test_certify_all_d2(capsys):
    code, out, _ = run(capsys, ["certify-all", "--d", "2", "--seed", "1"])
    assert code == 0
    certs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(c["outcome"] == "pass" for c in certs)
    commands = [c["command"] for c in certs]
    assert commands == [
        "certify-all/enumerate",
        "certify-all/flip-graph",
        "certify-all/bipartite-connected",
        "certify-all/orbits",
        "certify-all/epsilon-formula",
        "certify-all/determinant",
        "certify-all/relations",
    ]


def test_certify_all_d3(capsys):
    code, out, _ = run(capsys, ["certify-all", "--d", "3", "--seed", "11"])
    assert code == 0
    certs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(c["outcome"] == "pass" for c in certs)
    assert [c["command"] for c in certs] == [
        "certify-all/enumerate",
        "certify-all/flip-graph",
        "certify-all/bipartite-connected",
        "certify-all/orbits",
        "certify-all/epsilon-formula",
        "certify-all/catalog-match",
        "certify-all/determinant",
        "certify-all/relations",
    ]
    by_cmd = {c["command"]: c["numbers"] for c in certs}
    assert by_cmd["certify-all/enumerate"] == {"homogeneous": 756756, "cycle_free": 66240}
    assert by_cmd["certify-all/bipartite-connected"]["class_plus"] == 33120
    assert by_cmd["certify-all/orbits"]["orbits"] == 19
    assert by_cmd["certify-all/relations"]["instances_checked"] == 106_288_200


def test_flip_graph_custom_anchor_flips_orientation(capsys, tmp_path):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(
        json.dumps([{"partition": {"d": 2, "n": 4, "colors": [0, 1, 0, 0, 1, 1]}, "sign": -1}])
    )
    code, out, _ = run(
        capsys,
        ["flip-graph", "--d", "2", "--anchors", str(anchors)],
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["outcome"] == "pass"
    assert cert["numbers"]["class_plus"] == 6  # orientation flips, sizes do not
    assert cert["parameters"] == {"d": 2, "anchors": str(anchors)}


def test_flip_graph_conflicting_anchors_fail_the_certificate(capsys, tmp_path):
    # a member and its flip partner across face (1, 2, 3), both pinned at +1
    anchors = tmp_path / "anchors.json"
    anchors.write_text(
        json.dumps(
            [
                {"partition": {"d": 2, "n": 4, "colors": colors}, "sign": 1}
                for colors in ([0, 1, 0, 0, 1, 1], [1, 0, 0, 0, 1, 1])
            ]
        )
    )
    code, out, err = run(capsys, ["flip-graph", "--d", "2", "--anchors", str(anchors)])
    assert code == 1 and err == ""
    cert = json.loads(out)
    assert cert["command"] == "flip-graph" and cert["outcome"] == "fail"
    (witness,) = cert["witnesses"]
    assert witness["property"] == "anchor_consistency"
    assert "connecting path has 2 nodes" in witness["detail"]


@pytest.mark.parametrize(
    "doc",
    [[1], {"partition": {"d": 2, "n": 4, "colors": [0, 1, 0, 0, 1, 1]}, "sign": 1}],
    ids=["list_of_int", "bare_object"],
)
def test_flip_graph_malformed_anchor_file_is_a_usage_error(capsys, tmp_path, doc):
    # used to exit 3 on a TypeError from subscripting the JSON
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["flip-graph", "--d", "2", "--anchors", str(anchors)])
    assert code == 2 and out == ""
    assert "anchors must be a JSON list of {partition, sign} objects" in err


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, ["verify-relations", "--d", "2"])
    _, second, _ = run(capsys, ["verify-relations", "--d", "2"])
    strip = lambda s: json.dumps(
        {k: v for k, v in json.loads(s).items() if k != "wall_time_s"}, sort_keys=True
    )
    assert strip(first) == strip(second)


@pytest.mark.parametrize("scalar", ["1/0", True, 1.5])
def test_det_rejects_bad_scalars_as_usage_errors(capsys, tmp_path, scalar):
    vectors = [["1", "0"], ["0", "1"], ["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"]]
    vectors[0][0] = scalar
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"d": 2, "field": "rational", "vectors": vectors}))
    code, out, err = run(capsys, ["det", "--input", str(tensor)])
    assert code == 2 and out == "" and "error" in err


UNIT2 = [["1", "0"], ["0", "1"], ["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"]]


@pytest.mark.parametrize(
    "vectors",
    [5, [5] + UNIT2[1:], ["10", "01", "10", "10", "01", "01"], "101001"],
    ids=["bare-number", "bare-number-vector", "string-vectors", "string"],
)
def test_det_rejects_malformed_vectors_as_usage_errors(capsys, tmp_path, vectors):
    # a bare number used to escape as a TypeError (exit 1), strings were split into digits
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"d": 2, "field": "rational", "vectors": vectors}))
    code, out, err = run(capsys, ["det", "--input", str(tensor)])
    assert code == 2 and out == "" and "list of edge vectors" in err


def test_det_zero_edge_vector_next_to_huge_entry(capsys, tmp_path):
    vectors = [["0", "0"], [str(10 ** 19), "1"]] + UNIT2[2:]
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"d": 2, "field": "rational", "vectors": vectors}))
    code, out, err = run(capsys, ["det", "--input", str(tensor)])
    assert code == 0 and err == ""
    assert out.strip() == "0"


def test_internal_errors_exit_three(capsys, tmp_path, monkeypatch):
    import treedet.algebra

    def broken(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(treedet.algebra, "det_eval", broken)
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"d": 2, "field": "rational", "vectors": UNIT2}))
    code, out, err = run(capsys, ["det", "--input", str(tensor)])
    assert code == 3 and out == ""
    assert err == "error: internal RuntimeError: boom second line\n"


def test_flip_rejects_boolean_colors(capsys, tmp_path):
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps({"d": 2, "n": 4, "colors": [False, True, False, False, True, True]}))
    code, out, err = run(
        capsys, ["flip", "--d", "2", "--partition", str(p0), "--face", "1", "2", "3"]
    )
    assert code == 2 and out == "" and "color must be an integer" in err


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["det", "--input", str(tmp_path / "missing.json")])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["det", "--input", str(bad)])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify-all", "--seed", "0", "--workers", "1"])
    assert exc.value.code == 2


def _tampered_context(ctx, flipped):
    from treedet.context import Context
    from treedet.flips import SignatureTable

    signs = ctx.signature.signs.copy()
    signs[flipped] *= -1
    return Context(ctx.pset, ctx.graph, SignatureTable(ctx.pset, signs))


def test_flip_graph_missing_member_is_a_failed_certificate(capsys, monkeypatch):
    # used to escape as a bare AssertionError (exit 3)
    import treedet.cli
    from treedet.context import standard_context
    from treedet.enumeration import PartitionSet
    from treedet.flips import build_flip_graph

    pset = PartitionSet(2, 4, standard_context(2).pset.colors[1:], cycle_free=True)
    monkeypatch.setattr(treedet.cli, "standard_context", lambda d: build_flip_graph(pset))
    code, out, err = run(capsys, ["flip-graph", "--d", "2"])
    assert code == 1 and err == ""
    cert = json.loads(out)
    assert cert["outcome"] == "fail"
    assert [w["property"] for w in cert["witnesses"]] == ["flip_uniqueness"]


def test_certify_all_relation_witnesses_equal_verify_relations(capsys, monkeypatch):
    import treedet.cli
    from treedet.context import standard_context

    tampered = _tampered_context(standard_context(2), [0])
    monkeypatch.setattr(treedet.cli, "standard_context", lambda d, pset=None: tampered)
    code, out, _ = run(capsys, ["verify-relations", "--d", "2"])
    assert code == 1
    standalone = json.loads(out)["witnesses"]
    assert standalone[0]["property"] == "relation_vanishing" and standalone[0]["instances"]
    code, out, _ = run(capsys, ["certify-all", "--d", "2", "--seed", "1"])
    assert code == 1
    by_cmd = {c["command"]: c for c in map(json.loads, out.strip().splitlines())}
    relations = by_cmd["certify-all/relations"]
    assert relations["outcome"] == "fail" and relations["witnesses"] == standalone
    bipartite = by_cmd["certify-all/bipartite-connected"]
    assert bipartite["outcome"] == "fail"
    assert bipartite["witnesses"] == [{"property": "signature_alternation"}]


def test_certify_all_epsilon_witnesses_equal_verify_appendix(capsys, monkeypatch):
    import treedet.cli
    from treedet.context import standard_context
    from treedet.symmetry import CHARACTERS

    ctx3 = standard_context(3)
    tampered = _tampered_context(ctx3, slice(None, None, 10))
    monkeypatch.setattr(treedet.cli, "standard_context", lambda d, pset=None: tampered)
    code, out, _ = run(capsys, ["verify-appendix"])
    assert code == 1
    cert = json.loads(out)
    standalone = cert["witnesses"]
    assert [w["property"] for w in standalone] == ["signature_parity_formula"]
    violations = standalone[0]["violations"]  # no character holds: five of each, by orbit
    assert sorted(violations) == sorted(CHARACTERS)
    for found in violations.values():
        assert len(found) == 5 and all("orbit" in v for v in found)
    assert cert["numbers"]["character"] is None and cert["numbers"]["epsilon_violations"] > 0
    code, out, _ = run(capsys, ["certify-all", "--d", "3", "--seed", "5"])
    assert code == 1
    by_cmd = {c["command"]: c for c in map(json.loads, out.strip().splitlines())}
    epsilon = by_cmd["certify-all/epsilon-formula"]
    assert epsilon["outcome"] == "fail" and epsilon["witnesses"] == standalone
    assert by_cmd["certify-all/relations"]["witnesses"][0]["instances"]


def test_parity_form_with_a_missing_orbit_is_a_failed_certificate(capsys, monkeypatch):
    # the orbit of reference 19 is dropped whole: the other 18 orbits still
    # follow sgn tau, and catalog-match finds the missing reference (exit 1)
    import treedet.cli
    from treedet import catalog
    from treedet.context import Context, standard_context
    from treedet.enumeration import PartitionSet
    from treedet.flips import SignatureTable
    from treedet.symmetry import orbit_decomposition

    ctx3 = standard_context(3)
    orbits = orbit_decomposition(ctx3.pset)
    keep = orbits.roots != orbits.roots[ctx3.pset.index_of(catalog.reference_partition(19))]
    pset = PartitionSet(3, 6, ctx3.pset.colors[keep], cycle_free=True)
    short = Context(pset, ctx3.graph, SignatureTable(pset, ctx3.signature.signs[keep]))
    assert len(orbit_decomposition(pset).entries) == 18
    monkeypatch.setattr(treedet.cli, "standard_context", lambda d, pset=None: short)
    code, out, err = run(capsys, ["verify-appendix"])
    assert code == 1 and err == ""
    cert = json.loads(out)
    assert cert["numbers"]["epsilon_samples"] == 18 * 4320 == 77760
    assert cert["numbers"]["epsilon_violations"] == 0
    assert cert["numbers"]["character"] == "sgn_tau"
    assert [w["property"] for w in cert["witnesses"]] == ["orbit_catalog_match"]
    assert "reference 19 is not a member of the set" in cert["witnesses"][0]["diffs"]


def test_verify_appendix_fails_on_another_character_than_the_catalogs(capsys, monkeypatch):
    # the signs follow sgn tau; a table that stated another character fails,
    # in verify-appendix and in certify-all's d = 3 epsilon stage alike
    from treedet import catalog

    monkeypatch.setattr(catalog, "EXPECTED_CHARACTER", "sgn_sigma_sgn_tau")
    witness = {
        "property": "signature_parity_formula",
        "character": "sgn_tau",
        "expected": "sgn_sigma_sgn_tau",
    }
    code, out, _ = run(capsys, ["verify-appendix"])
    assert code == 1
    cert = json.loads(out)
    assert cert["numbers"]["character"] == "sgn_tau"
    assert cert["numbers"]["epsilon_violations"] == 0
    assert cert["witnesses"] == [witness]
    code, out, _ = run(capsys, ["certify-all", "--d", "3", "--seed", "7"])
    assert code == 1
    certs = [json.loads(line) for line in out.strip().splitlines()]
    assert [c["command"] for c in certs if c["outcome"] == "fail"] == ["certify-all/epsilon-formula"]
    epsilon = next(c for c in certs if c["command"] == "certify-all/epsilon-formula")
    assert epsilon["numbers"]["character"] == "sgn_tau" and epsilon["witnesses"] == [witness]
    code, out, _ = run(capsys, ["certify-all", "--d", "2", "--seed", "7"])
    assert code == 0  # the catalog's character is d = 3's; d = 2 only names its own


@pytest.mark.parametrize("extra", [["--force"], ["--count-only"]])
def test_enumerate_d4_is_refused_before_enumerating(capsys, monkeypatch, extra):
    import treedet.enumeration

    # an enumeration that starts touches numpy and exits 3, not 2
    monkeypatch.setattr(treedet.enumeration, "np", None)
    try:
        code = main(["enumerate", "--d", "4", *extra])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


@pytest.mark.parametrize("dropped", [0, 5, 11])
def test_orbits_of_a_set_missing_a_member_is_a_failed_certificate(capsys, monkeypatch, dropped):
    # exit 0 with one orbit of 11 (members 0 and 5) or exit 3 (member 11) before
    import numpy as np

    import treedet.cli
    from treedet.context import standard_context
    from treedet.enumeration import PartitionSet

    full = standard_context(2).pset
    pset = PartitionSet(2, 4, full.colors[np.arange(len(full)) != dropped], cycle_free=True)
    monkeypatch.setattr(treedet.cli, "enumerate_partitions", lambda d, cycle_free: pset)
    code, out, err = run(capsys, ["orbits", "--d", "2"])
    assert code == 1 and err == ""
    cert = json.loads(out)
    assert cert["command"] == "orbits" and cert["outcome"] == "fail"
    (witness,) = cert["witnesses"]
    assert witness["property"] == "orbit_closure"
    assert f"image code {full.partition(dropped).canonical_code()} " in witness["detail"]


CERTIFY_ALL_NUMBERS = {
    2: {
        "certify-all/enumerate": {"cycle_free": 12, "homogeneous": 20},
        "certify-all/flip-graph": {
            "flip_pairs_checked": 48,
            "flips_changing_three_edges": 0,
            "flips_changing_two_edges": 48,
            "involution": 1,
        },
        "certify-all/bipartite-connected": {
            "class_minus": 6,
            "class_plus": 6,
            "components": 1,
        },
        "certify-all/orbits": {"orbit_stabilizer_identity": 1, "orbits": 1},
        "certify-all/epsilon-formula": {
            "character": "sgn_sigma_sgn_tau",
            "epsilon_samples": 48,
            "epsilon_violations": 0,
        },
        "certify-all/determinant": {"det_of_generator": "1"},
        "certify-all/relations": {"instances_checked": 128, "violations": 0},
    },
    3: {
        "certify-all/enumerate": {"cycle_free": 66240, "homogeneous": 756756},
        "certify-all/flip-graph": {
            "flip_pairs_checked": 1324800,
            "flips_changing_three_edges": 149760,
            "flips_changing_two_edges": 1175040,
            "involution": 1,
        },
        "certify-all/bipartite-connected": {
            "class_minus": 33120,
            "class_plus": 33120,
            "components": 1,
        },
        "certify-all/orbits": {"orbit_stabilizer_identity": 1, "orbits": 19},
        "certify-all/epsilon-formula": {
            "character": "sgn_tau",
            "epsilon_samples": 82080,
            "epsilon_violations": 0,
        },
        "certify-all/catalog-match": {"mismatches": 0, "references_checked": 19},
        "certify-all/determinant": {"det_of_generator": "1"},
        "certify-all/relations": {"instances_checked": 106288200, "violations": 0},
    },
}


@pytest.mark.parametrize("d", [2, 3])
def test_certify_all_numbers_and_outcomes_are_pinned(capsys, d):
    code, out, _ = run(capsys, ["certify-all", "--d", str(d), "--seed", "7"])
    assert code == 0
    certs = [json.loads(line) for line in out.strip().splitlines()]
    assert {c["command"]: c["numbers"] for c in certs} == CERTIFY_ALL_NUMBERS[d]
    assert [c["command"] for c in certs] == list(CERTIFY_ALL_NUMBERS[d])
    assert all(c["outcome"] == "pass" and c["witnesses"] == [] for c in certs)
    assert certs[-1]["parameters"] == {"d": d, "sample": None, "seed": 7}


def test_certify_all_sampled_relations_record_their_seed(capsys):
    for seed in (7, 8):
        code, out, _ = run(
            capsys, ["certify-all", "--d", "2", "--seed", str(seed), "--sample-relations", "5"]
        )
        assert code == 0
        relations = json.loads(out.strip().splitlines()[-1])
        assert relations["command"] == "certify-all/relations"
        assert relations["parameters"] == {"d": 2, "sample": 5, "seed": seed}
