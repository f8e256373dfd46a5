import importlib.util
import os
import pathlib
import re
import shlex

from floquet_ssh import cli

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


def test_digest_first_line_records_the_thread_settings(monkeypatch, capsys):
    digest = _load_digest()
    monkeypatch.setattr(digest, "COMMANDS", ())
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert digest.main([]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"# OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=None cpu_count={os.cpu_count()}"]
