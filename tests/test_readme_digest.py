import argparse
import importlib.util
import os
import pathlib
import re
import shlex

from floquet_ssh import cli, floquet, sweep

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_digest():
    spec = importlib.util.spec_from_file_location(
        "readme_digest", ROOT / "scripts" / "readme_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _readme_commands() -> list[list[str]]:
    text = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start (CLI)", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("floquet-ssh "):
            commands.append(shlex.split(line)[1:])
    return commands


def _without_json(command) -> list[str]:
    args = list(command)
    if "--json" in args:
        at = args.index("--json")
        del args[at:at + 2]
    return args


def test_digest_runs_the_readme_commands():
    digest = _load_digest()
    assert [_without_json(c) for c in digest.COMMANDS] == _readme_commands()
    with_json = [c[0] for c in digest.COMMANDS if "--json" in c]
    assert with_json == ["spectrum", "sweep-phi", "phase-diagram"]


def test_readme_lists_the_config_keys():
    text = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The config file is a flat JSON object with the model keys(.*?)\.\s",
                         text, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == set(cli._SETTINGS)


def _subparsers() -> dict:
    parser = cli.build_parser()
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_solver_flag_table_matches_the_parser():
    solver_flags = {"--method", "--n-floquet", "--n-steps"}
    text = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    table = text.split("Each subcommand takes only the solver flags it reads:", 1)[1]
    rows = table.strip().split("\n\n", 1)[0].splitlines()[2:]
    documented = {}
    for row in rows:
        commands, flags = row.split("|")[1:3]
        for command in re.findall(r"`([\w-]+)`", commands):
            documented[command] = set(re.findall(r"--[\w-]+", flags))
    registered = {name: solver_flags & set(sub._option_string_actions)
                  for name, sub in _subparsers().items()}
    assert documented == {name: flags for name, flags in registered.items() if flags}


def test_readme_names_only_registered_flags():
    # the exceptions: an abbreviation shown as a usage error, and readme_digest.py's own flag
    text = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    registered = {flag for sub in _subparsers().values() for flag in sub._option_string_actions}
    assert "--threshold-method" in named
    assert named - registered <= {"--n-sit", "--src"}


def test_readme_caps_match_the_constants():
    text = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    stated = {name: int(number) for number, name in
              re.findall(r"(\d+)[^\d(]*\(`(MAX_\w+)`", text)}
    assert stated == {"MAX_GRID_POINTS": sweep.MAX_GRID_POINTS,
                      "MAX_PLOT_ROWS": cli.MAX_PLOT_ROWS,
                      "MAX_PROPAGATOR_STEPS": floquet.MAX_PROPAGATOR_STEPS}


def test_digest_first_line_records_the_thread_settings(monkeypatch, capsys):
    digest = _load_digest()
    monkeypatch.setattr(digest, "COMMANDS", ())
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert digest.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"# OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=None cpu_count={os.cpu_count()}"]
