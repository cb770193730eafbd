"""The README as a tested spec: every `multicolor` line of its CLI block runs
with the exit code its comments state, its JSON and Python examples load and
run, and its player table lists the registry's players.

Run as a script, this file writes the README's manifest and log writer into
the current directory and prints the CLI block as a bash script that stops at
the first line that does not exit 0:

    python tests/test_readme.py > readme_cli.sh && bash readme_cli.sh
"""

import json
import re
import shlex
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
