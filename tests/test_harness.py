import argparse
import contextlib
import copy
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from multicolor import harness
from multicolor.adversary import (hex_54, hex_chain, path_family, path_instance,
                                  random_cancel_instance, random_instance)
from multicolor.algorithms import ALGORITHMS, run_player
from multicolor.cli import build_parser, main
from multicolor.errors import (DomainError, MalformedInstanceError, MalformedLogError,
                               MalformedManifestError, MultiColorError, NotBipartiteError)
from multicolor.graph import Graph, build_bipartite, build_hexagonal, build_path
from multicolor.harness import (
    actions_from_dicts,
    actions_to_dicts,
    advice_bound,
    batch,
    csv_writer,
    instance_from_dict,
    instance_text,
    load_instance,
    load_log,
    report_row,
    run,
    save_instance,
)
from multicolor.instance import (CancelAction, ColorAction, Instance, Request, _shared_request,
                                 demand, validate_full)
from multicolor.oracle import Optimum
from conftest import instance_to_dict


# nested far deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 100000 + "]" * 100000


def hex_edge_21():
    g = build_hexagonal({"u": (0, 0), "v": (1, 0)})
    reqs = (Request("u", "color"), Request("v", "color"), Request("u", "color"))
    return Instance(g, reqs, name="hex_edge_21")


# names with non-ASCII, quote, backslash and control characters
NAMES = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€\U0001f600'),
                          st.characters()), max_size=5)


@st.composite
def instances(draw):
    """Path, bipartite and hexagonal instances, isolated nodes and empty
    request lists included, with cancellations of any color."""
    kind = draw(st.sampled_from(["path", "bipartite", "hexagonal"]))
    if kind == "path":
        graph = build_path(draw(st.integers(1, 12)))
    else:
        nodes = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
        if kind == "bipartite":
            side = {v: draw(st.sampled_from("LU")) for v in nodes}
            pairs = [(u, w) for u in nodes for w in nodes if side[u] == "L" and side[w] == "U"]
            edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            graph = build_bipartite(nodes, edges, side)
        else:
            cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                  min_size=len(nodes), max_size=len(nodes), unique=True))
            graph = build_hexagonal(dict(zip(nodes, cells)))
    if draw(st.booleans()):  # Graph() takes its nodes in any order
        graph = Graph(graph.kind, graph.nodes[::-1], *graph._fields()[2:])
    requests = draw(st.lists(st.builds(
        lambda v, color: Request(v, "color") if color is None else Request(v, "cancel", color),
        st.sampled_from(graph.nodes), st.none() | st.integers(1, 10**12)), max_size=12))
    return Instance(graph, tuple(requests), name=draw(NAMES))


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: path_family(40)[2],
        lambda: hex_chain(2, (1, 0)),
        lambda: random_instance("bipartite", seed=3),
        lambda: hex_edge_21(),
    ])
    def test_round_trip(self, make):
        inst = make()
        back = instance_from_dict(instance_to_dict(inst))
        assert back.requests == inst.requests
        assert back.graph.kind == inst.graph.kind
        assert back.graph.edge_list() == inst.graph.edge_list()
        assert back.name == inst.name

    def test_file_round_trip(self, tmp_path):
        inst = random_instance("hexagonal", seed=5)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert back.requests == inst.requests
        assert back.graph.cell_of == inst.graph.cell_of

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_written_text_loads_to_the_same_instance(self, inst):
        back = instance_from_dict(json.loads(instance_text(inst)))
        g, h = inst.graph, back.graph
        assert (h.kind, sorted(h.nodes), h.edge_list(), h.partition, h.cell_of) == (
            g.kind, sorted(g.nodes), g.edge_list(), g.partition, g.cell_of)
        assert (back.requests, back.name) == (inst.requests, inst.name)

    def test_path_fields_present_but_empty_are_kept(self):
        def load(**fields):
            graph = {"kind": "path", "nodes": ["v1", "v2", "v3"], **fields}
            return instance_from_dict({"graph": graph, "requests": []}).graph

        sides = {"v1": "L", "v2": "U", "v3": "L"}
        assert load(edges=[], partition=sides).edge_list() == []
        assert load(partition=sides).edge_list() == build_path(3).edge_list()
        assert load(edges=[["v1", "v2"]]).partition == build_path(3).partition
        with pytest.raises(NotBipartiteError, match="node 'v1' has no L/U side"):
            load(edges=[], partition={})

    def test_cancel_request_format(self):
        g = build_path(1)
        inst = Instance(g, (Request("v1", "color"), Request("v1", "cancel", cancel_color=1)))
        d = instance_to_dict(inst)
        assert d["requests"][1] == {"node": "v1", "op": "cancel", "color": 1}
        assert instance_from_dict(d).requests == inst.requests

    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_text_is_the_dict_dumped(self, inst):
        assert instance_text(inst) == json.dumps(instance_to_dict(inst), indent=2,
                                                 sort_keys=True) + "\n"

    @pytest.mark.parametrize("inst", [
        *path_family(57), hex_chain(3, (1, 0, 1)), hex_54(8, 1),
        random_instance("hexagonal", seed=1, n_nodes=200, n_requests=2000, grid_extent=17),
        random_cancel_instance(seed=1, n_nodes=200, n_requests=2000, edge_density=0.06),
    ], ids=lambda inst: inst.name)
    def test_family_text_is_the_dict_dumped(self, inst):
        assert instance_text(inst) == json.dumps(instance_to_dict(inst), indent=2,
                                                 sort_keys=True) + "\n"

    @pytest.mark.parametrize("make, error", [
        (lambda: Instance(build_bipartite([1, 2], [(1, 2)], {1: "L", 2: "U"}), ()),
         "node 1 is not named by a string"),
        (lambda: Instance(build_path(2), (), name=7),
         "instance field 'name' must be a string, got 7"),
        (lambda: Instance(build_hexagonal({"a": (0, 0), "b": (1, True)}), ()),
         "cell 'b' must be a pair of integers under a node name, got (1, True)"),
        (lambda: Instance(Graph("hexagonal", ("a",), {"a": {}}, cell_of={"a": (0.5, 0)}), ()),
         "cell 'a' must be a pair of integers under a node name, got (0.5, 0)"),
    ])
    def test_save_refuses_what_load_refuses(self, tmp_path, make, error):
        path = tmp_path / "inst.json"
        with pytest.raises(MalformedInstanceError, match=re.escape(error)):
            save_instance(make(), str(path))
        assert not path.exists()

    def test_generated_color_requests_are_shared(self):
        # more requested nodes than the process-wide table holds
        big = random_instance("hexagonal", seed=1, n_nodes=5000, n_requests=20000,
                              grid_extent=71)
        assert len({r.node for r in big.requests}) > _shared_request.cache_info().maxsize
        for inst in (random_instance("bipartite", seed=2, n_requests=50),
                     random_instance("hexagonal", seed=2, n_requests=50),
                     random_cancel_instance(seed=2, n_requests=80), path_family(40)[3],
                     hex_chain(3, (1, 0, 1), pad_requests=4), big):
            colors = [r for r in inst.requests if r.op == "color"]
            assert len({id(r) for r in colors}) == len({r.node for r in colors})

    def test_generated_cancel_requests_are_shared(self):
        inst = random_cancel_instance(seed=2, n_nodes=4, n_requests=300)
        cancels = [r for r in inst.requests if r.op == "cancel"]
        distinct = {(r.node, r.cancel_color) for r in cancels}
        assert len(cancels) > len(distinct)  # some (node, color) is cancelled twice
        assert len({id(r) for r in cancels}) == len(distinct)

    @pytest.mark.parametrize("make", [
        lambda: random_cancel_instance(seed=3, n_requests=80),
        lambda: random_instance("hexagonal", seed=3, n_requests=40),
        lambda: path_family(40)[2],
    ])
    def test_a_saved_file_loads_the_generated_requests(self, tmp_path, make):
        inst = make()
        save_instance(inst, str(tmp_path / "inst.json"))
        loaded = load_instance(str(tmp_path / "inst.json"))
        assert loaded == inst
        assert all(a is b for a, b in zip(loaded.requests, inst.requests, strict=True))

    def test_actions_round_trip(self):
        acts = [ColorAction(3), CancelAction(), CancelAction(recolor=(5, 2))]
        assert actions_from_dicts(actions_to_dicts(acts)) == acts


@st.composite
def request_dicts(draw):
    """A valid decoded instance file whose requests name few nodes and the
    colors 1 and 2 only, so equal color requests and equal cancels repeat."""
    graph = draw(instances()).graph
    data = instance_to_dict(Instance(graph, (), name=draw(NAMES)))
    data["requests"] = [{"node": v, "op": "color"} if c is None else
                        {"node": v, "op": "cancel", "color": c}
                        for v, c in draw(st.lists(st.tuples(st.sampled_from(graph.nodes[:3]),
                                                            st.sampled_from([None, 1, 2])),
                                                  max_size=30))]
    return data


def reference_requests(data):
    """The requests of a decoded instance file, built one by one."""
    return tuple(harness._request(r, i) for i, r in enumerate(data["requests"], 1))


# corruptions of a request; True and 2.0 equal the valid colors 1 and 2
CORRUPTIONS = {
    "color true": lambda r: {**r, "color": True},
    "color 2.0": lambda r: {**r, "color": 2.0},
    "color '1'": lambda r: {**r, "color": "1"},
    "node a list": lambda r: {**r, "node": [r["node"]]},
    "op bogus": lambda r: {**r, "op": "bogus"},
    "color on a color request": lambda r: {**r, "op": "color", "color": r.get("color", 1)},
}


class TestLoadRequests:
    @settings(max_examples=300, deadline=None)
    @given(request_dicts())
    def test_requests_equal_the_reference_and_are_shared(self, data):
        loaded = instance_from_dict(data)
        assert loaded == Instance(loaded.graph, reference_requests(data), data["name"])
        shared = {}
        for r in loaded.requests:
            assert shared.setdefault((r.node, r.op, r.cancel_color), r) is r

    @settings(max_examples=300, deadline=None)
    @given(request_dicts(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
    def test_corrupted_later_duplicate_fails_as_the_reference(self, data, corruption, draw):
        requests = data["requests"]
        if not requests:
            requests.append({"node": data["graph"]["nodes"][0], "op": "cancel", "color": 1})
        i = draw.draw(st.integers(0, len(requests) - 1))
        j = draw.draw(st.integers(i + 1, len(requests)))
        requests.insert(j, CORRUPTIONS[corruption](requests[i]))  # request j + 1 copies request i + 1
        with pytest.raises(MultiColorError) as expected:
            reference_requests(data)
        with pytest.raises(type(expected.value)) as got:
            instance_from_dict(data)
        assert str(got.value) == str(expected.value)

    def test_unknown_graph_kind(self):
        with pytest.raises(MalformedInstanceError, match="unknown graph kind 'tree'"):
            instance_from_dict({"graph": {"kind": "tree", "nodes": ["a"]}, "requests": []})

    def test_request_to_unknown_node(self):
        data = {"graph": {"kind": "path", "nodes": ["v1", "v2"]},
                "requests": [{"node": "zz", "op": "color"}]}
        with pytest.raises(MalformedInstanceError, match="request to unknown node 'zz'"):
            instance_from_dict(data)

    @pytest.mark.parametrize("color, corrupt", [(1, True), (2, 2.0)])
    def test_color_equal_to_an_earlier_int_is_refused(self, color, corrupt):
        cancel = {"node": "v1", "op": "cancel", "color": color}
        colors = [{"node": "v1", "op": "color"}] * 2
        data = {"graph": {"kind": "path", "nodes": ["v1"]},
                "requests": colors + [cancel, {**cancel, "color": corrupt}]}
        error = f"request 4 field 'color' must be an integer, got {corrupt!r}"
        with pytest.raises(MalformedInstanceError, match=re.escape(error)):
            instance_from_dict(data)

    def test_cancel_without_a_color_names_the_field(self):
        data = {"graph": {"kind": "path", "nodes": ["v1"]},
                "requests": [{"node": "v1", "op": "cancel"}]}
        error = "request 1 field 'color' must be an integer, got None"
        with pytest.raises(MalformedInstanceError, match=f"^{re.escape(error)}$"):
            instance_from_dict(data)


# valid decoded instance files of every family, each small enough for exact search
FUZZ_SEEDS = [instance_to_dict(inst) for inst in (
    path_family(40)[1], hex_chain(2, (1, 0)), hex_54(4, 1),
    random_instance("bipartite", seed=1, n_nodes=6, n_requests=12),
    random_instance("hexagonal", seed=1, n_nodes=6, n_requests=12),
    random_cancel_instance(seed=1, n_nodes=6, n_requests=12))]
JUNK = [None, True, 2.0, "", [], {}, -1, [1, 2]]


def json_places(tree, path=()):
    """The path (keys and indices from the root) of every value inside a
    decoded JSON document."""
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_places(value, path + (key,))


def at(data, path):
    """The value at path (keys and indices from the root) inside data."""
    for step in path:
        data = data[step]
    return data


@st.composite
def mutated_instance_dicts(draw):
    """A valid decoded instance file with one to three mutations: a field or
    item deleted, a value replaced by junk or by a node name, or a request
    duplicated at any place."""
    data = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    names = data["graph"]["nodes"]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["delete", "replace", "duplicate"]))
        if how == "duplicate":
            requests = data.get("requests")
            if isinstance(requests, list) and requests:
                copied = copy.deepcopy(draw(st.sampled_from(requests)))
                requests.insert(draw(st.integers(0, len(requests))), copied)
            continue
        if not mutate(draw, data, how, JUNK + names):
            break
    return data


def mutate(draw, data, how, values):
    """Delete a value drawn from inside the document data when how is
    "delete", else replace it by one of values; False when data holds none."""
    places = list(json_places(data))
    if not places:
        return False
    *path, key = draw(st.sampled_from(places))
    parent = at(data, path)
    if how == "delete":
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return True


@settings(max_examples=150, deadline=None)
@given(mutated_instance_dicts())
def test_malformed_instances_raise_only_multicolor_errors(data):
    """Loading a mutated instance file and running every algorithm (and an
    unknown one) on it, at every kind of width b, raises MultiColorError or
    nothing."""
    try:
        instance = instance_from_dict(data)
    except MultiColorError:
        return
    optimum = Optimum(instance)
    for algo in [*ALGORITHMS, "nope"]:
        for b in (None, 0, 1, 3):
            try:
                run(instance, algo, b=b, optimum=optimum)
            except MultiColorError:
                pass


# valid decoded logs and manifests, the documents that the fuzzers below mutate
LOG_INSTANCE = random_cancel_instance(seed=1, n_nodes=6, n_requests=12)
LOG_SEEDS = [{"actions": actions_to_dicts(run_player(
    "greedy_cancel", LOG_INSTANCE.graph, harness.make_advice(LOG_INSTANCE, "greedy_cancel"),
    LOG_INSTANCE.requests))}]
MANIFEST_SEEDS = [{"runs": [{"instance": "i.json", "algo": "greedy_opt"},
                            {"instance": "i.json", "algo": "greedy_truncated", "b": 2},
                            {"instance": "c.json", "algo": "greedy_cancel"},
                            {"instance": "h.json", "algo": "hex43"}]}]
NESTED_JUNK = [[[None]], {"op": ["color"]}, [{"color": {"x": [1]}}], {"runs": {}},
               {"actions": [[]]}, False, 0, 3, "color", "cancel", "fpa", "nope", "i.json",
               "h.json", "missing.json", [1, 2], [2, 1, 0], [True, 1]]


@st.composite
def mutated(draw, seeds):
    """A document of seeds with one to three mutations: a field or item
    deleted, a value replaced by junk (bools for ints, wrong types, nested
    junk), or a list item duplicated."""
    data = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["delete", "replace", "duplicate"]))
        if how == "duplicate":
            lists = [p for p in [(), *json_places(data)] if isinstance(at(data, p), list)]
            items = at(data, draw(st.sampled_from(lists))) if lists else []
            if items:
                items.insert(draw(st.integers(0, len(items))),
                             copy.deepcopy(draw(st.sampled_from(items))))
        elif not mutate(draw, data, how, JUNK + NESTED_JUNK):
            break
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with the instance files that LOG_SEEDS and MANIFEST_SEEDS name."""
    base = tmp_path_factory.mktemp("fuzz")
    for name, inst in (("i.json", path_family(40)[1]), ("c.json", LOG_INSTANCE),
                       ("h.json", hex_chain(2, (1, 0)))):
        save_instance(inst, str(base / name))
    return base


def main_quietly(argv):
    """cli.main(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def gen_reference(args):
    """The instance that `multicolor gen` writes for the parsed args, made by
    the adversary call it stands for; a MultiColorError or ValueError where
    the call, or the --branch digits, are refused."""
    if args.family == "path_family":
        return path_instance(args.n, args.i)
    if args.family == "hex_chain":
        branch = tuple(int(ch) for ch in args.branch)
        return hex_chain(len(branch), branch, pad_requests=args.pad)
    if args.family == "hex_54":
        return hex_54(args.p, args.i)
    if args.family == "random":
        return random_instance(args.kind, seed=args.seed, n_nodes=args.nodes,
                               n_requests=args.requests)
    return random_cancel_instance(seed=args.seed, n_nodes=args.nodes, n_requests=args.requests)


# each gen family's options, with small sizes and values on both sides of each refusal
GEN_OPTIONS = {
    "path_family": {"--n": st.integers(-2, 80), "--i": st.integers(-2, 22)},
    "hex_chain": {"--branch": st.text("0123a ", max_size=6), "--pad": st.integers(-2, 60)},
    "hex_54": {"--p": st.integers(-4, 80), "--i": st.integers(-1, 2)},
    "random": {"--kind": st.sampled_from(["bipartite", "hexagonal"]),
               "--seed": st.integers(-10 ** 6, 10 ** 6), "--nodes": st.integers(-1, 20),
               "--requests": st.integers(-1, 60)},
    "random_cancel": {"--seed": st.integers(-10 ** 6, 10 ** 6), "--nodes": st.integers(-1, 20),
                      "--requests": st.integers(-1, 60)},
}


@st.composite
def gen_argv(draw):
    """`multicolor gen` argv: a family and any subset of its options."""
    family = draw(st.sampled_from(sorted(GEN_OPTIONS)))
    argv = ["gen", family]
    for option, values in GEN_OPTIONS[family].items():
        if draw(st.booleans()):
            argv += [option, str(draw(values))]
    return argv


@settings(max_examples=300, deadline=None)
@given(gen_argv())
def test_gen_argv_writes_the_api_instance_or_one_error_line(argv):
    """`multicolor gen` exits 0 with the text of the adversary call's instance,
    which loads back equal, or exits 2 with one error line, where the call
    is refused too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    args = build_parser().parse_args(argv)
    if code == 0:
        inst = gen_reference(args)
        assert err.getvalue() == "" and out.getvalue() == instance_text(inst)
        assert instance_from_dict(json.loads(out.getvalue())) == inst
    else:
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue())
        with pytest.raises((MultiColorError, ValueError)):
            gen_reference(args)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """The files that command_argv names: small instances, a log of c.json,
    a manifest (with an entry whose path holds a NUL, and one with a huge b),
    a file that is not JSON and one nested too deep; missing.json is not
    there, and "." is a directory."""
    base = tmp_path_factory.mktemp("argv")
    for name, inst in (("i.json", path_family(40)[1]), ("c.json", LOG_INSTANCE),
                       ("h.json", hex_chain(2, (1, 0))),
                       ("x.json", random_instance("hexagonal", seed=3, n_nodes=10, n_requests=30))):
        save_instance(inst, str(base / name))
    runs = MANIFEST_SEEDS[0]["runs"] + [{"instance": "x.json", "algo": "trivial"},
                                        {"instance": "i\0.json", "algo": "greedy_opt"},
                                        {"instance": "i.json", "algo": "greedy_truncated",
                                         "b": 10 ** 9}]
    (base / "m.json").write_text(json.dumps({"runs": runs}))
    (base / "log.json").write_text(json.dumps(LOG_SEEDS[0]))
    (base / "bad.json").write_text("{")
    (base / "deep.json").write_text(DEEP_JSON)
    return base


ARGV_FILES = st.sampled_from(["i.json", "c.json", "h.json", "x.json", "m.json", "log.json",
                              "bad.json", "deep.json", "missing.json", "."])
ARGV_INTS = st.one_of(st.integers(-3, 70), st.integers(-10 ** 30, 10 ** 30)).map(str)
# no NUL: an argv from the OS cannot hold one
ARGV_JUNK = st.one_of(
    st.sampled_from(["--junk", "-x", "--", "-", "--b", "--budget", "--algo", "--format", "json",
                     "csv", "fpa", "i.json", "--b=", "--budget=1,2,3", "1e3", "٣"]),
    st.text(st.characters(blacklist_characters="\0", codec="utf-8"), max_size=6))
ARGV_INSTANCES = ["i.json", "c.json", "h.json", "x.json"]
# each command's positional arguments, as the files of the right kind for each
ARGV_POSITIONALS = {"run": [ARGV_INSTANCES], "opt": [ARGV_INSTANCES], "batch": [["m.json"]],
                    "verify": [ARGV_INSTANCES, ["log.json"]]}


@st.composite
def command_argv(draw):
    """`multicolor run`, `opt`, `batch` or `verify` argv: each command's files,
    half of the time of the right kind and at times one too few or too many,
    its options with values from negative to huge, and at times junk
    anywhere."""
    command = draw(st.sampled_from(sorted(ARGV_POSITIONALS)))
    argv = [draw(st.sampled_from(right) if draw(st.booleans()) else ARGV_FILES)
            for right in ARGV_POSITIONALS[command]]
    wrong_count = draw(st.sampled_from([0] * 6 + [-1, 1]))
    argv = argv[:len(argv) + wrong_count] + [draw(ARGV_FILES)] * (wrong_count > 0)
    options = {"run": ["--algo", "--b", "--budget", "--format"], "opt": ["--budget"]}
    for option in options.get(command, []):
        if option == "--algo" and draw(st.integers(0, 9)) or draw(st.booleans()):
            argv += [option, draw({
                "--algo": st.sampled_from(list(ALGORITHMS) + ["nope"]),
                "--b": ARGV_INTS,
                "--budget": st.one_of(st.tuples(ARGV_INTS, ARGV_INTS).map(",".join), ARGV_JUNK),
                "--format": st.sampled_from(["json", "csv", "xml"])}[option])]
    if draw(st.integers(0, 3)) == 0:
        for token in draw(st.lists(ARGV_JUNK, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return [command] + argv


@settings(max_examples=300, deadline=None)
@given(command_argv())
@example(["run", "i.json", "--algo", "fpa", "a\nb"])  # argparse echoes an unknown argument
@example(["batch", "m.json"])  # an entry's path holds a NUL
def test_command_argv_exits_0_1_or_2_with_one_error_line_at_most(argv_dir, argv):
    """`multicolor run`, `opt`, `batch` and `verify` exit 0 or 1 with nothing
    on stderr, or 2 with one error line; nothing prints a traceback.  The
    commands run in argv_dir, so that no junk --out can write elsewhere."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(argv_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # only --help, which junk may abbreviate
                code = exc.code
                assert code == 0 and out.getvalue().startswith("usage: multicolor")
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 2:
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""


@settings(max_examples=100, deadline=None)
@given(mutated(LOG_SEEDS))
def test_malformed_logs_raise_only_multicolor_errors(fuzz_dir, doc):
    """A mutated log fails only with MultiColorError in process, and `multicolor
    verify` exits 0, 1 or 2 with no traceback."""
    if isinstance(doc.get("actions"), list):
        try:
            validate_full(LOG_INSTANCE, actions_from_dicts(doc["actions"]))
        except MultiColorError:
            pass
    path = fuzz_dir / "log.json"
    path.write_text(json.dumps(doc))
    try:
        load_log(str(path))
    except MultiColorError:
        pass
    code, err = main_quietly(["verify", str(fuzz_dir / "c.json"), str(path),
                              "--out", str(fuzz_dir / "verdict.json")])
    assert code in (0, 1, 2) and "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(mutated(MANIFEST_SEEDS))
def test_malformed_manifests_fail_only_in_error_rows(fuzz_dir, doc):
    """A mutated manifest fails only with MultiColorError or in error rows in
    process, and `multicolor batch` exits 0, 1 or 2 with no traceback."""
    try:
        text, ok = batch(doc, base_dir=str(fuzz_dir))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(harness.CSV_COLUMNS) and len(rows) == 1 + len(doc["runs"])
        assert all(len(row) == len(harness.CSV_COLUMNS) for row in rows)
        assert not ok or all(row[-1] == "ok" for row in rows[1:])
    except MultiColorError:
        pass
    path = fuzz_dir / "manifest.json"
    path.write_text(json.dumps(doc))
    code, err = main_quietly(["batch", str(path), "--out", str(fuzz_dir / "report.csv")])
    assert code in (0, 1, 2) and "Traceback" not in err


class TestRun:
    def test_path_family_greedy_opt(self):
        report = run(path_family(40)[2], "greedy_opt")
        assert report.max_color == 12
        assert report.opt_value == 12
        assert report.strict_ratio == 1.0
        assert report.valid

    def test_hex_edge_hex43(self):
        report = run(hex_edge_21(), "hex43")
        assert report.max_color == 4
        assert report.advice_bits_read == 5
        assert report.valid

    @pytest.mark.parametrize("algo, make", [
        ("greedy_opt", lambda: path_family(40)[2]),
        ("hex43", lambda: random_instance("hexagonal", seed=3, n_nodes=10, n_requests=30)),
        ("greedy_cancel", lambda: random_cancel_instance(seed=5)),
    ], ids=["greedy_opt", "hex43", "greedy_cancel"])
    def test_reruns_report_equal_fields(self, algo, make):
        inst = make()
        first, second = run(inst, algo), run(inst, algo)
        assert first.asdict() == second.asdict() and first == second

    def test_empty_instance(self):
        inst = Instance(build_path(2), (), name="empty")
        report = run(inst, "greedy_opt")
        assert report.max_color == 0
        assert report.valid
        assert report.strict_ratio is None

    def test_budget_exceeded_reports_no_opt(self):
        inst = random_instance("hexagonal", seed=1, n_nodes=8, n_requests=20)
        report = run(inst, "hex43", optimum=Optimum(inst, max_nodes=2, max_requests=2))
        assert report.opt_value is None and report.strict_ratio is None
        assert report.valid

    def test_trivial_bipartite_beyond_the_exact_budget(self):
        inst = random_instance("bipartite", seed=3, n_nodes=60, n_requests=300)
        report = run(inst, "trivial")
        assert report.valid and report.ok
        assert report.max_color == report.opt_value == report.distinct_colors
        assert report.advice_bits_read == report.advice_bound

    def test_trivial_bound_unknown_beyond_the_exact_budget(self):
        inst = random_instance("hexagonal", seed=1, n_nodes=200, n_requests=2000, grid_extent=17)
        assert advice_bound(inst, "trivial") is None

    def test_color_bounds_are_the_player_table(self):
        path, odd = path_family(40)[2], path_family(40)[3]  # Opt 12 and 13
        hexagonal = random_instance("hexagonal", seed=7, n_nodes=10, n_requests=30)
        omega = Optimum(hexagonal).omega
        cancels = random_cancel_instance(seed=3)
        for inst, algo, b, bound in [
            (path, "greedy_opt", None, 12),
            (path, "greedy_truncated", 1, 24),
            (path, "greedy_truncated", 2, 18),
            (path, "greedy_truncated", 3, 15),
            (odd, "greedy_truncated", 2, 19),  # floor(13 * 3/2)
            (odd, "greedy_truncated", 3, 16),  # floor(13 * 5/4)
            (path, "trivial", None, 12),
            (cancels, "greedy_cancel", None, Optimum(cancels).peak_load),
            (hexagonal, "trivial", None, Optimum(hexagonal).value),
            (hexagonal, "fpa", None, 3 * -(-omega // 2)),
            (hexagonal, "hex43", None, (4 * omega + 1) // 3),
        ]:
            report = run(inst, algo, b=b)
            assert report.color_bound == bound, algo
            assert report.max_color <= bound and report.ok

    def test_bits_read_within_declared_bound(self):
        for algo, inst in [
            ("greedy_opt", path_family(40)[0]),
            ("greedy_truncated", path_family(40)[3]),
            ("trivial", hex_edge_21()),
            ("fpa", hex_edge_21()),
            ("hex43", hex_edge_21()),
            ("greedy_cancel", random_cancel_instance(seed=3)),
        ]:
            b = 2 if algo == "greedy_truncated" else None
            report = run(inst, algo, b=b)
            assert report.advice_bits_read <= advice_bound(inst, algo, b=b)
            assert report.advice_bound == advice_bound(inst, algo, b=b)


REFUSAL_IDS = ["path", "bipartite", "cancel", "hexagonal", "hexagonal-cancel"]
REFUSAL_CORPUS = [
    lambda: path_family(40)[2],
    lambda: random_instance("bipartite", seed=3),
    lambda: random_cancel_instance(seed=5),
    lambda: random_instance("hexagonal", seed=3, n_nodes=10, n_requests=30),
    lambda: Instance(build_hexagonal({"u": (0, 0), "w": (1, 0)}), (
        Request("u", "color"), Request("w", "color"), Request("u", "cancel", cancel_color=1))),
]


@pytest.mark.parametrize("algo", list(ALGORITHMS))
@pytest.mark.parametrize("make", REFUSAL_CORPUS, ids=REFUSAL_IDS)
def test_every_player_runs_ok_or_refuses_in_its_own_name(algo, make):
    try:
        report = run(make(), algo, b=3 if algo == "greedy_truncated" else None)
    except DomainError as exc:
        assert str(exc).startswith(f"{algo} "), str(exc)
    else:
        assert report.ok


@pytest.mark.parametrize("algo", list(ALGORITHMS))
@pytest.mark.parametrize("make", REFUSAL_CORPUS, ids=REFUSAL_IDS)
def test_a_run_asks_the_instance_once_at_most_whether_it_cancels(monkeypatch, algo, make):
    """The run's Optimum keeps the answer for its tape, bound and Opt."""
    inst, calls, has_cancellations = make(), [], Instance.has_cancellations
    monkeypatch.setattr(Instance, "has_cancellations",
                        lambda self: calls.append(self) or has_cancellations(self))
    try:
        run(inst, algo, b=3 if algo == "greedy_truncated" else None)
    except DomainError:
        pass
    assert len(calls) <= 1


def test_metrics_count_a_recolor_target():
    actions = [ColorAction(1), ColorAction(2), CancelAction(), CancelAction(recolor=(2, 5))]
    assert harness._metrics(actions) == (5, 3)


def count_calls(monkeypatch, *fns):
    """Rebind each of fns in every multicolor module that binds it to a
    counting wrapper; returns the list that collects one entry per call to
    any of them."""
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return counted

    for name, mod in list(sys.modules.items()):
        if name == "multicolor" or name.startswith("multicolor."):
            for attr, obj in list(vars(mod).items()):
                if any(obj is fn for fn in fns):
                    monkeypatch.setattr(mod, attr, counting(obj))
    return calls


def count_witness_builds(monkeypatch):
    """One entry per attempt to build a hexagonal witness: by the
    omega-coloring certificate, or by the exact search behind it.  A
    certified instance takes one certificate call and no search."""
    from multicolor import oracle

    return count_calls(monkeypatch, oracle.omega_coloring, oracle._opt_search)


class TestWorkCounts:
    """One run computes each offline quantity once, shared by the tape, the
    advice bound and the reported Opt."""

    def test_trivial_hexagonal_builds_one_witness(self, monkeypatch):
        builds = count_witness_builds(monkeypatch)
        report = run(hex_edge_21(), "trivial")
        assert len(builds) == 1
        assert report.opt_value == report.max_color
        assert report.advice_bound is not None

    def test_trivial_bipartite_runs_no_exact_search(self, monkeypatch):
        from multicolor.oracle import _opt_search, opt_exact

        calls = count_calls(monkeypatch, opt_exact, _opt_search)
        for inst in (path_family(40)[2], random_instance("bipartite", seed=3)):
            report = run(inst, "trivial")
            assert report.ok and report.max_color == report.opt_value
        assert calls == []

    def test_greedy_cancel_computes_one_peak_load(self, monkeypatch):
        from multicolor.instance import peak_clique_load

        inst = random_cancel_instance(seed=5)
        calls = count_calls(monkeypatch, peak_clique_load)
        report = run(inst, "greedy_cancel")
        assert len(calls) == 1
        assert report.valid and report.ok

    @pytest.mark.parametrize("algo, b", [("greedy_opt", None), ("greedy_truncated", 2),
                                         ("greedy_cancel", None), ("trivial", None)])
    def test_path_and_bipartite_runs_list_no_cliques(self, monkeypatch, algo, b):
        """omega and the peak load of a path or bipartite run come from node
        and edge loads: no run of a player that serves them lists cliques."""
        instances = [path_family(40)[2], random_instance("bipartite", seed=3, n_nodes=30,
                                                         n_requests=200)]
        if algo == "greedy_cancel":
            instances.append(random_cancel_instance(seed=5, n_nodes=30, n_requests=200))

        from multicolor import graph, oracle

        def refuse(g):
            raise AssertionError(f"the cliques of a {g.kind} graph were listed")

        for module in (graph, oracle):
            monkeypatch.setattr(module, "maximal_cliques", refuse)
        for inst in instances:
            assert run(inst, algo, b=b).ok

    def test_hex43_computes_omega_once(self, monkeypatch):
        from multicolor.graph import clique_weight

        inst = random_instance("hexagonal", seed=3, n_nodes=10, n_requests=30)
        calls = count_calls(monkeypatch, clique_weight)
        report = run(inst, "hex43")
        assert len(calls) == 1
        assert report.ok and report.opt_value == clique_weight(inst.graph, demand(inst))

    @pytest.mark.parametrize("algo, make", [
        ("trivial", lambda: path_family(40)[2]),
        ("trivial", hex_edge_21),
        ("hex43", lambda: random_instance("hexagonal", seed=3, n_nodes=10, n_requests=30)),
    ], ids=["trivial-path", "trivial-hexagonal", "hex43"])
    def test_run_counts_demand_once(self, monkeypatch, algo, make):
        from multicolor import instance

        inst = make()
        calls = count_calls(monkeypatch, instance.demand)
        assert run(inst, algo).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("algo", ["fpa", "hex43"])
    def test_beyond_the_budget_the_run_shares_demand_and_omega(self, monkeypatch, algo):
        from multicolor import instance
        from multicolor.graph import clique_weight

        inst = random_instance("hexagonal", seed=1, n_nodes=200, n_requests=2000, grid_extent=17)
        demands = count_calls(monkeypatch, instance.demand)
        omegas = count_calls(monkeypatch, clique_weight)
        builds = count_witness_builds(monkeypatch)
        report = run(inst, algo)
        assert report.ok and report.opt_value is None
        assert (len(demands), len(omegas), builds) == (1, 1, [])

    def test_cli_run_csv_runs_once(self, tmp_path, monkeypatch, capsys):
        inst_path = str(tmp_path / "inst.json")
        save_instance(path_family(40)[2], inst_path)
        calls = count_calls(monkeypatch, harness.run)
        assert main(["run", inst_path, "--algo", "greedy_opt", "--format", "csv"]) == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("algorithm,")
        assert lines[1].startswith("greedy_opt,path_family_n40_i2,12,")

    def test_batch_shares_one_load_and_one_witness_per_file(self, tmp_path, monkeypatch):
        save_instance(random_instance("hexagonal", seed=7, n_nodes=10, n_requests=30),
                      str(tmp_path / "hex.json"))
        manifest = {"runs": [{"instance": "hex.json", "algo": algo}
                             for algo in ("fpa", "hex43", "trivial")]}
        loads = count_calls(monkeypatch, harness.load_instance)
        builds = count_witness_builds(monkeypatch)
        text, ok = batch(manifest, base_dir=str(tmp_path))
        assert ok and len(text.splitlines()) == 4
        assert len(loads) == 1
        assert len(builds) == 1


class TestColorBoundMiss:
    """A valid run above its guaranteed color bound is not ok: `run` and
    `batch` exit 1, and the CSV row's status names the bound."""

    @pytest.fixture(autouse=True)
    def overshooting_greedy_opt(self, monkeypatch):
        from multicolor import algorithms

        play = algorithms.greedy_opt
        # every color one higher: still a valid coloring, one color above Opt
        monkeypatch.setattr(algorithms, "greedy_opt", lambda g, tape, reqs: [
            ColorAction(a.color + 1) for a in play(g, tape, reqs)])

    def test_report_is_not_ok(self):
        report = run(path_family(40)[2], "greedy_opt")
        assert report.valid and report.advice_bits_read <= report.advice_bound
        assert (report.max_color, report.color_bound) == (13, 12)
        assert not report.ok

    def test_run_exits_1(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i2.json")
        save_instance(path_family(40)[2], inst_path)
        assert main(["run", inst_path, "--algo", "greedy_opt"]) == 1
        assert json.loads(capsys.readouterr().out)["color_bound"] == 12

    def test_batch_exits_1(self, tmp_path):
        save_instance(path_family(40)[2], str(tmp_path / "i2.json"))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"runs": [{"instance": "i2.json",
                                                       "algo": "greedy_opt"}]}))
        out_path = tmp_path / "report.csv"
        assert main(["batch", str(manifest_path), "--out", str(out_path)]) == 1
        row = out_path.read_text().splitlines()[1]
        assert row == ("greedy_opt,path_family_n40_i2,13,12,11,12,1.083333,true,"
                       "over color bound 12")


class TestStatus:
    """A run that raised nothing reports "ok" or the first rule it breaks, and
    its CSV row says which."""

    @pytest.mark.parametrize("valid, bits, colors, status", [
        (True, 5, 7, "ok"), (False, 9, 9, "invalid"), (True, 9, 9, "over advice bound 8"),
        (True, 8, 9, "over color bound 8"),
    ])
    def test_status_names_the_first_rule_broken(self, valid, bits, colors, status):
        report = harness.RunReport("greedy_opt", "i", colors, colors, bits, 8, colors / 8,
                                   valid, advice_bound=8, color_bound=8)
        assert (report.status, report.ok) == (status, status == "ok")
        assert harness.report_row(report)[-1] == status

    def test_a_run_over_a_patched_color_bound_is_named_and_batch_exits_1(self, tmp_path,
                                                                         monkeypatch):
        from multicolor.algorithms import Algorithm

        entry = ALGORITHMS["greedy_opt"]
        monkeypatch.setitem(ALGORITHMS, "greedy_opt",
                            Algorithm(entry.play, entry.advise, entry.bound, lambda opt, b: 0))
        save_instance(path_family(40)[2], str(tmp_path / "i2.json"))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"runs": [{"instance": "i2.json",
                                                       "algo": "greedy_opt"}]}))
        out_path = tmp_path / "report.csv"
        assert main(["batch", str(manifest_path), "--out", str(out_path)]) == 1
        row = out_path.read_text().splitlines()[1]
        assert row == "greedy_opt,path_family_n40_i2,12,12,11,12,1.000000,true,over color bound 0"

    def test_run_json_names_the_patched_color_bound_and_exits_1(self, tmp_path, capsys,
                                                                monkeypatch):
        from multicolor.algorithms import Algorithm

        entry = ALGORITHMS["greedy_opt"]
        monkeypatch.setitem(ALGORITHMS, "greedy_opt",
                            Algorithm(entry.play, entry.advise, entry.bound, lambda opt, b: 0))
        inst_path = str(tmp_path / "i2.json")
        save_instance(path_family(40)[2], inst_path)
        assert main(["run", inst_path, "--algo", "greedy_opt", "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert (out["status"], out["color_bound"], out["max_color"]) == ("over color bound 0", 0, 12)


def _run_benchmarks():
    """scripts/run_benchmarks.py as a module."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", os.path.join(root, "scripts", "run_benchmarks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dict_writer_reference(manifest, base_dir):
    """The reference report: each manifest run done on its own and written by
    csv.DictWriter from a dict per row, missing columns left empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=harness.CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    for i, entry in enumerate(manifest["runs"], 1):
        record = entry if isinstance(entry, dict) else {}
        algo = record.get("algo", "?")
        try:
            path, algo, b = harness._run_entry(entry, i)
            report = run(load_instance(os.path.join(base_dir, path)), algo, b=b)
        except (MultiColorError, OSError) as exc:
            writer.writerow({"algorithm": algo, "instance": record.get("instance", "?"),
                             "status": f"error: {exc}"})
            continue
        writer.writerow({
            "algorithm": report.algorithm, "instance": report.instance,
            "max_color": report.max_color, "distinct_colors": report.distinct_colors,
            "advice_bits_read": report.advice_bits_read,
            "opt_value": "" if report.opt_value is None else report.opt_value,
            "strict_ratio": "" if report.strict_ratio is None else f"{report.strict_ratio:.6f}",
            "valid": str(report.valid).lower(), "status": "ok"})
    return buf.getvalue()


class TestBatch:
    def _manifest(self, tmp_path):
        save_instance(path_family(40)[2], str(tmp_path / "i2.json"))
        save_instance(hex_edge_21(), str(tmp_path / "hex.json"))
        return {
            "runs": [
                {"instance": "i2.json", "algo": "greedy_opt"},
                {"instance": "i2.json", "algo": "greedy_truncated", "b": 2},
                {"instance": "hex.json", "algo": "hex43"},
            ]
        }

    def test_rows_and_determinism(self, tmp_path):
        manifest = self._manifest(tmp_path)
        text1, ok1 = batch(manifest, base_dir=str(tmp_path))
        text2, ok2 = batch(manifest, base_dir=str(tmp_path))
        assert text1 == text2
        assert ok1 and ok2
        lines = text1.strip().split("\n")
        assert len(lines) == 4  # header + 3 rows
        assert lines[1].startswith("greedy_opt,path_family_n40_i2,12,")

    def test_error_row_continues(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest["runs"].insert(1, {"instance": "missing.json", "algo": "fpa"})
        text, ok = batch(manifest, base_dir=str(tmp_path))
        lines = text.strip().split("\n")
        assert len(lines) == 5
        assert "error" in lines[2]
        assert not ok
        assert lines[4].startswith("hex43,")

    def test_non_json_instance_is_an_error_row(self, tmp_path):
        manifest = self._manifest(tmp_path)
        (tmp_path / "junk.json").write_text("not json")
        manifest["runs"].insert(1, {"instance": "junk.json", "algo": "fpa"})
        text, ok = batch(manifest, base_dir=str(tmp_path))
        assert not ok
        assert text.split("\n")[2] == ("fpa,junk.json,,,,,,,"
                                       "error: Expecting value: line 1 column 1 (char 0)")

    def test_too_deeply_nested_instance_is_an_error_row(self, tmp_path):
        save_instance(path_family(40)[2], str(tmp_path / "i2.json"))
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        manifest = {"runs": [{"instance": "i2.json", "algo": "greedy_opt"},
                             {"instance": "deep.json", "algo": "fpa"}]}
        text, ok = batch(manifest, base_dir=str(tmp_path))
        rows = text.splitlines()
        assert not ok and len(rows) == 3
        assert rows[1].startswith("greedy_opt,path_family_n40_i2,12,")
        assert rows[2].startswith("fpa,deep.json,,,,,,,error: maximum recursion depth exceeded")

    def test_shared_runs_match_runs_one_by_one(self, tmp_path):
        manifest = _run_benchmarks().build_corpus(str(tmp_path), 25)
        buf = io.StringIO()
        writer = csv_writer(buf)
        for entry in manifest["runs"]:
            instance = load_instance(str(tmp_path / entry["instance"]))
            writer.writerow(report_row(run(instance, entry["algo"], b=entry.get("b"))))
        text, _ = batch(manifest, base_dir=str(tmp_path))
        assert text == buf.getvalue()

    @pytest.mark.parametrize("name", ["missing.json", "junk.json"])
    def test_unreadable_file_twice_gives_two_equal_error_rows(self, tmp_path, name):
        manifest = self._manifest(tmp_path)
        (tmp_path / "junk.json").write_text("not json")
        manifest["runs"][1:1] = [{"instance": name, "algo": "fpa"}] * 2
        text, ok = batch(manifest, base_dir=str(tmp_path))
        lines = text.split("\n")
        assert not ok
        assert lines[2] == lines[3]
        assert lines[2].startswith(f"fpa,{name},,,,,,,error: ")
        assert lines[4].startswith("greedy_truncated,")

    def test_a_b_a_reloads_a(self, tmp_path, monkeypatch):
        manifest = self._manifest(tmp_path)
        a, b = manifest["runs"][0], manifest["runs"][2]
        manifest["runs"] = [a, b, a]
        loads = count_calls(monkeypatch, harness.load_instance)
        lines = batch(manifest, base_dir=str(tmp_path))[0].splitlines()
        assert len(loads) == 3
        assert lines[1] == lines[3]
        assert lines[1].startswith("greedy_opt,path_family_n40_i2,12,")


    def test_csv_equals_a_dict_writer_reference(self, tmp_path):
        manifest = _run_benchmarks().build_corpus(str(tmp_path), 3)
        big = random_instance("hexagonal", seed=1, n_nodes=30, n_requests=60, grid_extent=8)
        save_instance(big, str(tmp_path / "big.json"))
        odd = 'x,"y"\n\u00e9\u20ac'  # a comma, quotes, a newline and non-ASCII
        manifest["runs"][2:2] = [
            {"instance": "big.json", "algo": "fpa"},
            {"instance": "big.json", "algo": "trivial"},
            {"instance": manifest["runs"][0]["instance"], "algo": odd},
            {"instance": odd + ".json", "algo": "fpa"},
            {"instance": [odd], "algo": "fpa"},
            {"instance": None, "algo": 5},
            odd,
            {"instance": manifest["runs"][0]["instance"], "algo": "greedy_truncated", "b": 0},
        ]
        text, ok = batch(manifest, base_dir=str(tmp_path))
        assert not ok
        assert text == dict_writer_reference(manifest, str(tmp_path))
        assert '"x,""y""\n\u00e9\u20ac"' in text

    def test_golden_report(self, tmp_path):
        # the CSV of `scripts/run_benchmarks.py --seeds 25`, byte for byte
        manifest = _run_benchmarks().build_corpus(str(tmp_path), 25)
        text, ok = batch(manifest, base_dir=str(tmp_path))
        assert ok
        with open(os.path.join(os.path.dirname(__file__), "data", "report_seeds25.csv")) as fh:
            assert text == fh.read()

    @pytest.mark.parametrize("entry, error", [
        ("i2.json", "run 2 must be an object, got 'i2.json'"),
        ({"algo": "fpa"}, "run 2 has no field 'instance'"),
        ({"instance": 5, "algo": "fpa"}, "run 2 field 'instance' must be a string, got 5"),
        ({"instance": "i2.json", "algo": ["fpa"]}, "run 2 field 'algo' must be a string"),
        ({"instance": "i2.json", "algo": "greedy_truncated", "b": "3"},
         "run 2 field 'b' must be an integer, got '3'"),
        ({"instance": "i2.json", "algo": "greedy_truncated", "b": True},
         "run 2 field 'b' must be an integer, got True"),
        ({"instance": "i2.json"}, "run 2 has no field 'algo'"),
    ])
    def test_wrong_type_entry_is_an_error_row(self, tmp_path, entry, error):
        manifest = self._manifest(tmp_path)
        manifest["runs"].insert(1, entry)
        text, ok = batch(manifest, base_dir=str(tmp_path))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert not ok
        assert len(rows) == 4
        assert rows[1]["status"].startswith(f"error: {error}")
        assert [r["status"] for r in rows[:1] + rows[2:]] == ["ok"] * 3  # the batch went on


def text_mode_load(path, error):
    """The reference reader: json.load on the file opened in text mode as
    UTF-8, which translates each \r\n and lone \r to \n; `error` if it is
    not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(str(exc)) from exc


# file contents on which the byte reader must give the reference's document or error text
JSON_FILES = {
    "invalid utf-8": b'{"runs": [1,\n "\xff"]}',
    "invalid utf-8 after non-ascii": '{"a": "\u00e9\u20ac"}'.encode() + b"\xc3(",
    "utf-8 bom": b"\xef\xbb\xbf" + json.dumps({"runs": []}).encode(),
    "crlf, syntax error late":
        ('{\r\n' + '  "a": [1, 2],\r\n' * 40 + '  "b": [1,,2]\r\n}\r\n').encode(),
    "lone cr, syntax error late": ('{\r' + '  "a": 1,\r' * 40 + '  "b": }\r').encode(),
    "mixed newlines, valid": b'{\r\n"actions":\r[\n{"op": "color", "color": 1}\r\n]}\r',
    "cr inside a string": b'{"runs": "a\rb"}',
    "non-ascii, valid": '{"runs": [], "name": "\u00e9\u20ac\U0001f600"}'.encode(),
    "empty": b"",
    "too deep": DEEP_JSON.encode(),
}


def json_error(path, error):
    """(document, None) or (None, (error class, text)) of text_mode_load."""
    try:
        return text_mode_load(path, error), None
    except MultiColorError as exc:
        return None, (type(exc), str(exc))


class TestLoadJson:
    @pytest.mark.parametrize("name", sorted(JSON_FILES))
    @pytest.mark.parametrize("error", [MalformedInstanceError, MalformedLogError,
                                       MalformedManifestError])
    def test_bytes_give_the_text_mode_document_or_error(self, tmp_path, name, error):
        path = tmp_path / "file.json"
        path.write_bytes(JSON_FILES[name])
        document, expected = json_error(str(path), error)
        if expected is None:
            assert harness._load_json(str(path), error) == document
        else:
            with pytest.raises(error) as got:
                harness._load_json(str(path), error)
            assert (type(got.value), str(got.value)) == expected

    @pytest.mark.parametrize("name", sorted(JSON_FILES))
    def test_instance_manifest_and_log_files_fail_as_the_reference(self, tmp_path, name,
                                                                   capsys):
        path = tmp_path / "file.json"
        path.write_bytes(JSON_FILES[name])
        for load, error in ((load_instance, MalformedInstanceError),
                            (harness.load_log, MalformedLogError)):
            document, expected = json_error(str(path), error)
            if expected is not None:
                with pytest.raises(error) as got:
                    load(str(path))
                assert str(got.value) == expected[1]
        document, expected = json_error(str(path), MalformedManifestError)
        if expected is not None:
            assert main(["batch", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {expected[1]}\n"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([b"{", b"}", b"[", b"]", b'"a"', b":", b",", b"1", b" ",
                                     b"\r", b"\n", b"\r\n", b"\xff", b"\xc3\xa9",
                                     b"\xef\xbb\xbf", b'"\r"']), max_size=12))
    def test_fragments_give_the_text_mode_document_or_error(self, tmp_path_factory, parts):
        path = tmp_path_factory.mktemp("json") / "file.json"
        path.write_bytes(b"".join(parts))
        document, expected = json_error(str(path), MalformedInstanceError)
        if expected is None:
            assert harness._load_json(str(path)) == document
        else:
            with pytest.raises(MalformedInstanceError) as got:
                harness._load_json(str(path))
            assert str(got.value) == expected[1]


class TestCli:
    def test_gen_opt_run_verify(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        assert main(["gen", "random", "--kind", "bipartite", "--seed", "4",
                     "--out", inst_path]) == 0

        opt_path = str(tmp_path / "opt.json")
        assert main(["opt", inst_path, "--out", opt_path]) == 0
        opt_payload = json.loads(Path(opt_path).read_text())
        assert opt_payload["opt"] >= 1

        run_path = str(tmp_path / "run.json")
        assert main(["run", inst_path, "--algo", "greedy_opt", "--out", run_path]) == 0
        report = json.loads(Path(run_path).read_text())
        assert report["valid"] is True
        assert report["max_color"] == opt_payload["opt"]

        # verify the optimal witness replayed as a log
        inst = load_instance(inst_path)
        from multicolor.oracle import opt_exact
        from conftest import witness_actions

        acts = witness_actions(inst, opt_exact(inst).coloring)
        log_path = str(tmp_path / "log.json")
        with open(log_path, "w") as fh:
            json.dump({"actions": actions_to_dicts(acts)}, fh)
        assert main(["verify", inst_path, log_path, "--out",
                     str(tmp_path / "verdict.json")]) == 0

        # a corrupted log (color 0 is never legal) is rejected with exit code 1
        bad = actions_to_dicts(acts)
        bad[0] = {"op": "color", "color": 0}
        with open(log_path, "w") as fh:
            json.dump({"actions": bad}, fh)
        v2_path = str(tmp_path / "v2.json")
        assert main(["verify", inst_path, log_path, "--out", v2_path]) == 1
        assert json.loads(Path(v2_path).read_text())["verdict"] == "violation"

    def test_batch_cli(self, tmp_path):
        inst_path = str(tmp_path / "i0.json")
        assert main(["gen", "path_family", "--n", "40", "--i", "0",
                     "--out", inst_path]) == 0
        manifest_path = str(tmp_path / "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump({"runs": [{"instance": "i0.json", "algo": "greedy_opt"}]}, fh)
        out_path = str(tmp_path / "report.csv")
        assert main(["batch", manifest_path, "--out", out_path]) == 0
        text = Path(out_path).read_text()
        assert text.splitlines()[0].startswith("algorithm,")
        assert "greedy_opt" in text

    def test_run_json_prints_the_report_fields_status_and_runtime(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i.json")
        save_instance(path_family(40)[2], inst_path)
        assert main(["run", inst_path, "--algo", "greedy_opt"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == {*harness.RunReport.__match_args__, "status", "runtime_millis"}
        assert printed["status"] == "ok"
        millis = printed["runtime_millis"]
        assert type(millis) in (int, float) and millis >= 0

    def test_a_lone_surrogate_is_written_as_its_escape(self, tmp_path, capsys):
        """An instance name, algorithm or instance path that UTF-8 cannot
        encode is written as its \\uXXXX escape, to a file and to stdout."""
        inst = path_family(40)[2]
        save_instance(Instance(inst.graph, inst.requests, name="\udcff"), str(tmp_path / "s.json"))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"runs": [{"instance": "s.json", "algo": "greedy_opt"},
                                                  {"instance": "s.json", "algo": "\udcff"},
                                                  {"instance": "\udcff", "algo": "fpa"}]}))
        out = tmp_path / "r.csv"
        assert main(["batch", str(manifest), "--out", str(out)]) == 1
        text = out.read_bytes().decode()
        assert main(["batch", str(manifest)]) == 1
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][:2] == ["greedy_opt", "\\udcff"] and rows[1][-1] == "ok"
        assert rows[2][0] == "\\udcff" and rows[2][-1] == "error: unknown algorithm '\\udcff'"
        assert rows[3][1] == "\\udcff" and rows[3][-1].startswith("error: [Errno 2]")
        argv = ["run", str(tmp_path / "s.json"), "--algo", "greedy_opt", "--format", "csv"]
        assert main([*argv, "--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_bytes().decode()
        assert list(csv.reader(io.StringIO(out.read_text())))[1][1] == "\\udcff"

    @pytest.mark.parametrize("argv", [["gen", "path_family"], ["opt", "{instance}"],
                                      ["run", "{instance}", "--algo", "greedy_opt"]])
    def test_out_path_with_a_nul_exits_2(self, tmp_path, capsys, argv):
        instance = str(tmp_path / "i.json")
        save_instance(path_family(40)[2], instance)
        assert main([arg.format(instance=instance) for arg in argv] + ["--out", "a\0b"]) == 2
        assert capsys.readouterr() == ("", "error: no file name holds a NUL, got 'a\\x00b'\n")

    def test_save_instance_refuses_a_nul_path(self):
        with pytest.raises(MultiColorError, match="no file name holds a NUL"):
            save_instance(path_family(40)[2], "a\0b")

    def test_run_csv_format(self, tmp_path, capsys):
        inst_path = str(tmp_path / "inst.json")
        main(["gen", "hex_chain", "--branch", "10", "--out", inst_path])
        assert main(["run", inst_path, "--algo", "fpa", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("algorithm,")

    def test_error_exit_code(self, tmp_path, capsys):
        inst_path = str(tmp_path / "hex.json")
        main(["gen", "hex_chain", "--branch", "1", "--out", inst_path])
        # bipartite-only algorithm on a hexagonal instance -> domain error
        assert main(["run", inst_path, "--algo", "greedy_opt"]) == 2

    @pytest.mark.parametrize("argv", [
        ["run", "{missing}", "--algo", "fpa"],
        ["run", "{instance}", "--algo", "fpa", "--out", "{missing_dir}/r.json"],
        ["opt", "{missing}"],
        ["batch", "{missing}"],
        ["verify", "{dir}", "{dir}"],
        ["verify", "{instance}", "{missing}"],
        ["gen", "random", "--out", "{missing_dir}/x.json"],
    ])
    def test_file_that_cannot_be_read_or_written_exits_2(self, tmp_path, capsys, argv):
        save_instance(path_family(40)[2], str(tmp_path / "i.json"))
        paths = {"missing": tmp_path / "missing.json", "missing_dir": tmp_path / "no" / "dir",
                 "dir": tmp_path, "instance": tmp_path / "i.json"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_batch_with_a_missing_instance_exits_1(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"runs": [{"instance": "missing.json",
                                                       "algo": "fpa"}]}))
        assert main(["batch", str(manifest_path)]) == 1
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["status"].startswith("error: [Errno 2]")

    def test_algo_choices_are_the_registry(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        algo = next(a for a in sub.choices["run"]._actions if a.dest == "algo")
        assert list(algo.choices) == list(ALGORITHMS)

    @pytest.mark.parametrize("args", [
        ["path_family", "--n", "41", "--i", "3"], ["hex_chain", "--branch", "101", "--pad", "2"],
        ["hex_54", "--p", "8", "--i", "1"], ["random", "--kind", "bipartite", "--seed", "3"],
        ["random", "--kind", "hexagonal", "--seed", "3"], ["random_cancel", "--seed", "3"],
    ])
    def test_gen_stdout_equals_gen_out(self, tmp_path, capsys, args):
        out = tmp_path / "i.json"
        assert main(["gen", *args]) == 0
        printed = capsys.readouterr().out
        assert main(["gen", *args, "--out", str(out)]) == 0
        assert printed.encode() == out.read_bytes()

    def test_gen_negative_padding_exits_2(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        assert main(["gen", "hex_chain", "--branch", "1", "--pad", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: hex_chain needs pad_requests >= 0, got -3\n"
        assert not out.exists()

    def test_gen_index_out_of_range_exits_2(self, capsys):
        assert main(["gen", "path_family", "--n", "40", "--i", "99"]) == 2
        assert "--i 99" in capsys.readouterr().err

    @pytest.mark.parametrize("n, i, error", [
        ("39", "0", "path_family needs n >= 40, got 39"),
        ("-3", "99", "path_family needs n >= 40, got -3"),
        ("400", "101", "path_family --n 400 has indices 0..100, got --i 101"),
        ("400", "-1", "path_family --n 400 has indices 0..100, got --i -1"),
    ])
    def test_gen_path_family_refusals(self, capsys, n, i, error):
        assert main(["gen", "path_family", "--n", n, "--i", i]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_gen_path_family_builds_one_instance(self, monkeypatch, capsys):
        from multicolor import adversary

        built = []

        def counted(*args, **kwargs):
            built.append(kwargs.get("name"))
            return Instance(*args, **kwargs)

        expected = instance_text(path_family(400)[3])
        monkeypatch.setattr(adversary, "Instance", counted)
        assert main(["gen", "path_family", "--n", "400", "--i", "3"]) == 0
        assert built == ["path_family_n400_i3"]
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("make, error", [
        (lambda: random_instance("bipartite", seed=3), "hex43 needs a hexagonal graph, got bipartite"),
        (lambda: Instance(build_hexagonal({"u": (0, 0)}), (
            Request("u", "color"), Request("u", "cancel", cancel_color=1))),
         "hex43 does not handle cancellations"),
    ], ids=["bipartite", "cancellation"])
    def test_run_hex43_refusals_name_hex43(self, tmp_path, capsys, make, error):
        inst_path = str(tmp_path / "i.json")
        save_instance(make(), inst_path)
        assert main(["run", inst_path, "--algo", "hex43"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_run_trivial_refuses_cancellations(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i.json")
        save_instance(random_cancel_instance(seed=5), inst_path)
        assert main(["run", inst_path, "--algo", "trivial"]) == 2
        assert capsys.readouterr().err == "error: trivial does not handle cancellations\n"

    def test_run_instance_missing_field_exits_2(self, tmp_path, capsys):
        data = {"graph": {"kind": "bipartite"}, "requests": []}
        with pytest.raises(MalformedInstanceError, match="'nodes'"):
            instance_from_dict(data)
        inst_path = tmp_path / "bad.json"
        inst_path.write_text(json.dumps(data))
        assert main(["run", str(inst_path), "--algo", "greedy_opt"]) == 2
        assert "'nodes'" in capsys.readouterr().err

    def test_run_unknown_graph_kind_exits_2(self, tmp_path, capsys):
        inst_path = tmp_path / "tree.json"
        inst_path.write_text(json.dumps({"graph": {"kind": "tree", "nodes": ["a"]},
                                         "requests": []}))
        assert main(["run", str(inst_path), "--algo", "trivial"]) == 2
        assert "unknown graph kind 'tree'" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        (("requests", 1, "color"), "1", "request 2 field 'color'"),
        (("requests", 1, "color"), True, "request 2 field 'color'"),
        (("requests", 0, "node"), ["u"], "request 1 field 'node'"),
        (("requests",), 5, "instance field 'requests'"),
        (("name",), ["x"], "instance field 'name'"),
        (("graph", "nodes"), [["u"], "w"], "graph field 'nodes'"),
        (("graph", "edges"), [["u"]], "graph field 'edges'"),
        (("graph", "edges"), [["u", ["w"]]], "graph field 'edges'"),
        (("graph", "partition"), [], "graph field 'partition'"),
        (("graph", "cells"), [], "graph field 'cells'"),
        (("graph", "cells", "u"), [0], "cell 'u'"),
        (("graph", "cells", "u"), ["0", 0], "cell 'u'"),
        (("graph", "cells", "u"), [0, False], "cell 'u'"),
        (("requests", 1), "u", "request 2"),
        (("requests", 0), ["u", "color"], "request 1"),
        (("graph",), ["u", "w"], "graph"),
    ])
    def test_wrong_type_field_exits_2(self, tmp_path, capsys, path, value, field):
        graph = ({"kind": "hexagonal", "cells": {"u": [0, 0], "w": [1, 0]}}
                 if "cells" in path else
                 {"kind": "bipartite", "nodes": ["u", "w"], "edges": [["u", "w"]],
                  "partition": {"u": "L", "w": "U"}})
        data = {"graph": graph, "name": "bad", "requests": [
            {"node": "u", "op": "color"}, {"node": "u", "op": "cancel", "color": 1}]}
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(MalformedInstanceError, match=f"{field} must be"):
            instance_from_dict(data)

        inst_path = tmp_path / "bad.json"
        inst_path.write_text(json.dumps(data))
        log_path = tmp_path / "log.json"
        log_path.write_text(json.dumps({"actions": []}))
        for argv in (["run", str(inst_path), "--algo", "trivial"], ["opt", str(inst_path)],
                     ["verify", str(inst_path), str(log_path)]):
            assert main(argv) == 2
            assert field in capsys.readouterr().err
        text, ok = batch({"runs": [{"instance": "bad.json", "algo": "trivial"}]},
                         base_dir=str(tmp_path))
        assert not ok
        row = next(csv.DictReader(io.StringIO(text)))
        assert row["algorithm"] == "trivial" and row["instance"] == "bad.json"
        assert row["status"].startswith(f"error: {field} must be")

    @pytest.mark.parametrize("request_, error", [
        ({"op": "color"}, "request 3 has no field 'node'"),
        ({"node": "v1"}, "request 3 has no field 'op'"),
    ])
    def test_missing_request_field_names_the_request(self, tmp_path, capsys, request_, error):
        data = instance_to_dict(path_family(40)[0])
        data["requests"][2] = request_
        with pytest.raises(MalformedInstanceError, match=error):
            instance_from_dict(data)
        (tmp_path / "bad.json").write_text(json.dumps(data))
        assert main(["run", str(tmp_path / "bad.json"), "--algo", "greedy_opt"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_color_request_with_a_color_exits_2(self, tmp_path, capsys):
        data = instance_to_dict(path_family(40)[0])
        data["requests"][2]["color"] = None  # null is no color
        assert instance_from_dict(data) == path_family(40)[0]
        data["requests"][2]["color"] = [1]
        error = "color request takes no color, got [1]"
        with pytest.raises(MalformedInstanceError, match=re.escape(error)):
            instance_from_dict(data)
        (tmp_path / "bad.json").write_text(json.dumps(data))
        assert main(["run", str(tmp_path / "bad.json"), "--algo", "greedy_opt"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        text, ok = batch({"runs": [{"instance": "bad.json", "algo": "greedy_opt"}]},
                         base_dir=str(tmp_path))
        assert not ok
        assert next(csv.DictReader(io.StringIO(text)))["status"] == f"error: {error}"

    def test_verify_log_missing_color_exits_2(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i0.json")
        save_instance(path_family(40)[0], inst_path)
        with pytest.raises(MalformedLogError, match="'color'"):
            actions_from_dicts([{"op": "color"}])
        log_path = tmp_path / "log.json"
        log_path.write_text(json.dumps({"actions": [{"op": "color"}]}))
        assert main(["verify", inst_path, str(log_path)]) == 2
        assert "'color'" in capsys.readouterr().err

    @pytest.mark.parametrize("action, field", [
        ({"op": "color", "color": "x"}, "action 2 field 'color'"),
        ({"op": "color", "color": True}, "action 2 field 'color'"),
        ({"op": "paint", "color": 1}, "action 2 field 'op'"),
        ({"op": "cancel", "recolor": 5}, "action 2 field 'recolor'"),
        ({"op": "cancel", "recolor": [1]}, "action 2 field 'recolor'"),
        ({"op": "cancel", "recolor": [1, "2"]}, "action 2 field 'recolor'"),
        ({"op": "cancel", "recolor": [False, 2]}, "action 2 field 'recolor'"),
        (5, "action 2"),
        (["color", 1], "action 2"),
    ])
    def test_wrong_type_action_exits_2(self, tmp_path, capsys, action, field):
        actions = [{"op": "color", "color": 1}, action]
        with pytest.raises(MalformedLogError, match=f"{field} must be"):
            actions_from_dicts(actions)
        inst_path = str(tmp_path / "i0.json")
        save_instance(path_family(40)[0], inst_path)
        log_path = tmp_path / "log.json"
        log_path.write_text(json.dumps({"actions": actions}))
        assert main(["verify", inst_path, str(log_path)]) == 2
        assert f"{field} must be" in capsys.readouterr().err

    def test_log_actions_not_a_list_exits_2(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i0.json")
        save_instance(path_family(40)[0], inst_path)
        log_path = tmp_path / "log.json"
        log_path.write_text(json.dumps({"actions": 5}))
        assert main(["verify", inst_path, str(log_path)]) == 2
        assert "log field 'actions' must be a list, got 5" in capsys.readouterr().err

    def test_batch_wrong_type_entry_exits_1(self, tmp_path, capsys):
        save_instance(path_family(40)[0], str(tmp_path / "i0.json"))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"runs": [
            "i0.json", {"instance": "i0.json", "algo": "greedy_opt"}]}))
        out_path = tmp_path / "report.csv"
        assert main(["batch", str(manifest_path), "--out", str(out_path)]) == 1
        rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
        assert rows[0]["status"] == "error: run 1 must be an object, got 'i0.json'"
        assert rows[1]["status"] == "ok"

    def test_manifest_runs_not_a_list_exits_2(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"runs": 5}))
        assert main(["batch", str(manifest_path)]) == 2
        assert "manifest field 'runs' must be a list, got 5" in capsys.readouterr().err

    def test_non_json_instance_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        log_path = tmp_path / "log.json"
        log_path.write_text(json.dumps({"actions": []}))
        for text, error in (("{not json", "error: Expecting property name"),
                            (DEEP_JSON, "error: maximum recursion depth exceeded")):
            junk.write_text(text)
            with pytest.raises(MalformedInstanceError):
                load_instance(str(junk))
            for argv in (["run", str(junk), "--algo", "greedy_opt"], ["opt", str(junk)],
                         ["verify", str(junk), str(log_path)]):
                assert main(argv) == 2
                assert capsys.readouterr().err.startswith(error)

    def test_non_json_log_exits_2(self, tmp_path, capsys):
        inst_path = str(tmp_path / "i0.json")
        save_instance(path_family(40)[0], inst_path)
        log_path = tmp_path / "log.json"
        for content in (b"\xff\xfe", DEEP_JSON.encode()):
            log_path.write_bytes(content)
            with pytest.raises(MalformedLogError):
                harness.load_log(str(log_path))
            assert main(["verify", inst_path, str(log_path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_non_json_manifest_exits_2(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        for text, error in (("runs: []", "error: Expecting value"),
                            (DEEP_JSON, "error: maximum recursion depth exceeded")):
            manifest_path.write_text(text)
            assert main(["batch", str(manifest_path)]) == 2
            assert capsys.readouterr().err.startswith(error)
        manifest_path.write_text(json.dumps({"run": []}))
        assert main(["batch", str(manifest_path)]) == 2
        assert "manifest has no field 'runs'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "opt"])
    def test_budget_default_is_the_oracle_default(self, command):
        from multicolor import oracle
        from multicolor.cli import _parse_budget

        args = build_parser().parse_args([command, "i.json"] + ["--algo", "fpa"] * (command == "run"))
        assert _parse_budget(args.budget) == (oracle.DEFAULT_MAX_NODES, oracle.DEFAULT_MAX_REQUESTS)

    @pytest.mark.parametrize("command", ["run", "opt"])
    def test_bad_budget_exits_2(self, tmp_path, capsys, command):
        inst_path = str(tmp_path / "i0.json")
        save_instance(path_family(40)[0], inst_path)
        for budget in ("14", "-1,40", "14,-3"):  # a negative cap is refused too
            argv = [command, inst_path, f"--budget={budget}"] + (
                ["--algo", "trivial"] if command == "run" else [])
            assert main(argv) == 2
            assert f"--budget must be NODES,REQUESTS, got {budget!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("args, error", [
        (["random", "--nodes", "-3"], "got -3 and 20"),
        (["random", "--kind", "hexagonal", "--nodes", "0"], "got 0 and 20"),
        (["random", "--requests", "-5"], "got 8 and -5"),
        (["random_cancel", "--requests", "-5"], "got 8 and -5"),
    ])
    def test_gen_random_bad_size_exits_2(self, tmp_path, capsys, args, error):
        out = tmp_path / "i.json"
        assert main(["gen", *args, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_gen_random_hexagonal_takes_a_grid_with_a_cell_per_node(self, capsys):
        assert main(["gen", "random", "--kind", "hexagonal", "--nodes", "30", "--requests",
                     "50"]) == 0
        inst = instance_from_dict(json.loads(capsys.readouterr().out))
        assert inst == random_instance("hexagonal", seed=0, n_nodes=30, n_requests=50,
                                       grid_extent=6)

    def test_node_listed_twice_exits_2(self, tmp_path, capsys):
        data = {"graph": {"kind": "bipartite", "nodes": ["n0", "n1", "n0"],
                          "edges": [["n0", "n1"]], "partition": {"n0": "L", "n1": "U"}},
                "requests": [{"node": "n0", "op": "color"}]}
        error = "graph field 'nodes' lists 'n0' twice"
        with pytest.raises(MalformedInstanceError, match=error):
            instance_from_dict(data)
        (tmp_path / "dup.json").write_text(json.dumps(data))
        assert main(["run", str(tmp_path / "dup.json"), "--algo", "greedy_opt"]) == 2
        assert error in capsys.readouterr().err
        text, ok = batch({"runs": [{"instance": "dup.json", "algo": "greedy_opt"}]},
                         base_dir=str(tmp_path))
        assert not ok
        assert next(csv.DictReader(io.StringIO(text)))["status"] == f"error: {error}"

    def test_node_listed_twice_is_found_in_linear_time(self):
        nodes = [f"n{i}" for i in range(20000)]
        data = {"graph": {"kind": "bipartite", "nodes": nodes + [nodes[-1]], "edges": [],
                          "partition": dict.fromkeys(nodes, "L")}, "requests": []}
        start = time.process_time()
        with pytest.raises(MalformedInstanceError, match="lists 'n19999' twice$"):
            instance_from_dict(data)
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("nodes, error", [
        (["a", "zz", "a"], "graph field 'nodes' lists 'a' twice"),
        (["b"], "graph field 'nodes' does not list cell 'a'"),
        (["b", "zz", "a"], "graph field 'nodes' lists 'zz', which has no cell"),
        ("a", "graph field 'nodes' must be a list of node names, got 'a'"),
        (["a", "b", "b", "a"], "graph field 'nodes' lists 'b' twice"),
    ])
    def test_hexagonal_nodes_name_each_cell_once(self, tmp_path, capsys, nodes, error):
        data = {"graph": {"kind": "hexagonal", "nodes": nodes,
                          "cells": {"a": [0, 0], "b": [1, 0]}},
                "requests": [{"node": "a", "op": "color"}]}
        with pytest.raises(MalformedInstanceError, match=error):
            instance_from_dict(data)
        (tmp_path / "bad.json").write_text(json.dumps(data))
        assert main(["run", str(tmp_path / "bad.json"), "--algo", "fpa"]) == 2
        assert error in capsys.readouterr().err
        text, ok = batch({"runs": [{"instance": "bad.json", "algo": "fpa"}]},
                         base_dir=str(tmp_path))
        assert not ok
        assert next(csv.DictReader(io.StringIO(text)))["status"] == f"error: {error}"

    def test_hexagonal_nodes_are_optional_and_in_any_order(self):
        data = {"graph": {"kind": "hexagonal", "cells": {"a": [0, 0], "b": [1, 0]}},
                "requests": [{"node": "a", "op": "color"}]}
        expected = instance_from_dict(data)
        data["graph"]["nodes"] = ["b", "a"]
        assert instance_from_dict(data) == expected
        assert expected.graph.nodes == ("a", "b")

    def test_bad_branch_exits_2(self, capsys):
        for branch in ("1x", "", "2", "0 1", "-1"):
            assert main(["gen", "hex_chain", "--branch", branch]) == 2
            assert capsys.readouterr().err == (
                f"error: --branch must be one or more 0s and 1s, got {branch!r}\n")

    def test_batch_does_not_import_adversary(self, tmp_path):
        save_instance(path_family(40)[2], str(tmp_path / "i2.json"))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"runs": [{"instance": "i2.json",
                                                       "algo": "greedy_opt"}]}))
        code = ("import sys; from multicolor.cli import main; "
                f"status = main(['batch', {str(manifest_path)!r}, '--out', "
                f"{str(tmp_path / 'report.csv')!r}]); "
                "print(status, 'multicolor.adversary' in sys.modules)")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_batch_writes_utf8_to_an_ascii_stdout(self, tmp_path):
        """Under an ASCII stdout, a batch on an instance with a non-ASCII name
        exits 0 and writes its report as UTF-8 bytes."""
        inst = path_family(40)[2]
        save_instance(Instance(inst.graph, inst.requests, name="é€"), str(tmp_path / "i.json"))
        (tmp_path / "m.json").write_text(json.dumps({"runs": [{"instance": "i.json",
                                                               "algo": "greedy_opt"}]}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "multicolor.cli", "batch",
                               str(tmp_path / "m.json")], capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"})
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main(["batch", str(tmp_path / "m.json"), "--out", str(tmp_path / "r.csv")]) == 0
        assert proc.stdout == (tmp_path / "r.csv").read_bytes()
        assert list(csv.reader(io.StringIO(proc.stdout.decode())))[1][:2] == ["greedy_opt", "é€"]

    def test_verify_output_independent_of_hash_seed(self, tmp_path):
        leaves = ["a", "b", "d", "e"]
        graph = {"kind": "bipartite", "nodes": ["c"] + leaves,
                 "edges": [["c", v] for v in leaves],
                 "partition": {"c": "L", **{v: "U" for v in leaves}}}
        inst_path = tmp_path / "star.json"
        inst_path.write_text(json.dumps({"graph": graph, "requests": [
            {"node": v, "op": "color"} for v in leaves + ["c"]]}))
        log_path = tmp_path / "log.json"
        log_path.write_text(json.dumps({"actions": [{"op": "color", "color": 1}] * 5}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = set()
        for hash_seed in range(1, 7):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-m", "multicolor.cli", "verify",
                                   str(inst_path), str(log_path)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 1
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["violation"]["other_node"] == "a"
