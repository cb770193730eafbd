"""The README as a tested spec: every `multicolor` line of its CLI block runs
with the exit code its comments state, its JSON and Python examples load and
run, and its player table lists the registry's players.

Run as a script, this file writes the README's manifest and log writer into
the current directory and prints the CLI block as a bash script that stops at
the first line that does not exit 0:

    python tests/test_readme.py > readme_cli.sh && bash readme_cli.sh
"""

import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading):
    """The README lines under `heading`, up to the next heading of its level
    or above; a `#` line inside a code block is no heading."""
    depth, out, fenced = len(heading.split()[0]), None, False
    for line in README.read_text().splitlines(keepends=True):
        is_heading = not fenced and re.match(r"#+ ", line)
        fenced ^= line.startswith("```")
        if is_heading and out is not None and len(line.split()[0]) <= depth:
            break
        if out is not None:
            out.append(line)
        if is_heading and line.rstrip() == heading:
            out = []
    assert out is not None, f"the README has no heading {heading!r}"
    return "".join(out)


def blocks(lang, text=None):
    """The bodies of the README's fenced `lang` code blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text or README.read_text(), re.M | re.S)


def json_example(key):
    """The README's JSON example whose top-level object has field `key`."""
    (example,) = [b for b in blocks("json") if key in json.loads(b)]
    return example


def log_writer():
    """The README's Python example, which writes log.json."""
    (code,) = [b for b in blocks("python") if "log.json" in b]
    return code


def cli_lines():
    """(exit code, line) for each `multicolor` line of the CLI section's sh
    block; the code is the one the last `exits N` comment above it states."""
    (block,) = blocks("sh", section("## CLI"))
    expected, out = None, []
    for line in block.splitlines():
        if line.startswith("#"):
            expected = int(m[-1]) if (m := re.findall(r"\bexits (\d)\b", line)) else expected
        elif line.startswith("multicolor "):
            assert expected is not None, f"no comment states the exit code of {line!r}"
            out.append((expected, line))
    return out


def test_cli_block_exits_as_its_comments_state(tmp_path, monkeypatch, capsys):
    from multicolor import cli

    monkeypatch.chdir(tmp_path)
    Path("manifest.json").write_text(json_example("runs"))
    lines = cli_lines()
    assert {line.split()[1] for _, line in lines} == {"gen", "opt", "run", "batch", "verify"}
    for expected, line in lines:
        if "log.json" in line and not Path("log.json").exists():
            exec(log_writer(), {})
        assert cli.main(shlex.split(line)[1:]) == expected, line
        assert "error:" not in capsys.readouterr().err


def test_log_writer_writes_one_action_per_request(tmp_path, monkeypatch):
    from multicolor import cli, harness

    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "path_family", "--n", "40", "--i", "2", "--out", "i2.json"]) == 0
    exec(log_writer(), {})
    actions = harness.load_log("log.json")
    assert len(actions) == harness.load_instance("i2.json").n
    assert json.loads(Path("log.json").read_text()) == {
        "actions": harness.actions_to_dicts(actions)}


def test_instance_example_loads_and_runs():
    from multicolor.algorithms import ALGORITHMS
    from multicolor.errors import DomainError
    from multicolor.harness import instance_from_dict, run

    instance = instance_from_dict(json.loads(json_example("graph")))
    ran = []
    for algo in ALGORITHMS:
        try:
            report = run(instance, algo, b=2)
        except DomainError:  # a player refuses the graph kind or the cancellation
            continue
        assert report.ok, algo
        ran.append(algo)
    assert ran == ["greedy_cancel"]


def test_player_table_lists_the_registry_in_order():
    from multicolor.algorithms import ALGORITHMS

    names = re.findall(r"^\| `(\w+)` \|", section("### The players"), re.M)
    assert names == list(ALGORITHMS)


# The largest color each Guarantee cell of the player table allows, keyed by
# the cell's exact text, so that an edited cell fails the test below; f holds
# Opt (from exact search), the peak clique load, omega and the width b.
GUARANTEES = {
    "strictly 1-competitive": lambda f: f.opt,
    "strictly `1 + 1/2^(b-1)`": lambda f: math.floor((1 + Fraction(1, 2 ** (f.b - 1))) * f.opt),
    "strictly 1-competitive, at most one recolor per cancellation": lambda f: f.peak,
    "exactly optimal": lambda f: f.opt,
    "max color ≤ `3⌈ω/2⌉`": lambda f: 3 * math.ceil(Fraction(f.omega, 2)),
    "max color ≤ `⌊(4ω+1)/3⌋` by construction: lower nodes color up from `3q+1`, upper "
    "nodes down from `ω + q = ⌊(4ω+1)/3⌋`": lambda f: (4 * f.omega + 1) // 3,
}


def player_table():
    """player -> its Guarantee cell, from the README's player table."""
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section("### The players"), re.M)
    return {name: cells.split(" | ")[-1] for name, cells in rows}


def test_each_guarantee_cell_is_the_registry_color_bound():
    from types import SimpleNamespace

    from multicolor.adversary import (hex_54, hex_chain, path_family, random_cancel_instance,
                                      random_instance)
    from multicolor.errors import DomainError
    from multicolor.harness import run
    from multicolor.instance import demand_clique_weight, peak_clique_load
    from multicolor.oracle import opt_exact

    samples = [path_family(40)[2], random_instance("bipartite", seed=5, n_nodes=8, n_requests=24),
               random_cancel_instance(seed=2), hex_chain(3, (1, 0, 1)), hex_54(8, 1),
               random_instance("hexagonal", seed=1, n_nodes=10, n_requests=30),
               random_instance("hexagonal", seed=3, n_nodes=10, n_requests=30)]  # omega 10, 11
    table, checked = player_table(), set()
    assert set(table.values()) <= set(GUARANTEES), "a Guarantee cell has no formula here"
    for inst in samples:
        facts = SimpleNamespace(peak=peak_clique_load(inst), omega=demand_clique_weight(inst),
                                opt=None if inst.has_cancellations() else opt_exact(inst).opt_value)
        for algo, cell in table.items():
            for facts.b in (1, 2, 3):
                try:
                    report = run(inst, algo, b=facts.b)
                except DomainError:  # the player refuses the graph kind or a cancellation
                    continue
                assert report.color_bound == GUARANTEES[cell](facts), (algo, inst.name, facts.b)
                checked.add((algo, inst.graph.kind))
    assert {algo for algo, _ in checked} == set(table)
    assert {kind for _, kind in checked} == {"path", "bipartite", "hexagonal"}


if __name__ == "__main__":
    Path("manifest.json").write_text(json_example("runs"))
    Path("write_log.py").write_text(log_writer())
    print("set -ex")
    logged = False
    for expected, line in cli_lines():
        assert expected == 0, f"{line!r} is stated to exit {expected}"
        if "log.json" in line and not logged:
            print("python write_log.py")
            logged = True
        print(line)
