"""Every demo script, and every python block of README.md, runs to
completion against the package in src/; every `hashexit` command and
`--flag` that README.md names exists in the CLI, and every dotted name of
the package it puts in backticks resolves."""

import argparse
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hashexit
from hashexit import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
SUBMODULES = {p.stem for p in (ROOT / "src" / "hashexit").glob("*.py")}
FILE_SUFFIXES = {"py", "csv", "txt", "json", "bin", "hash", "md"}


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    # an empty glob would leave the parametrized tests below with no cases
    assert DEMOS
    assert README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_zero(block, tmp_path):
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr


def readme_commands():
    """The argv of each `hashexit` command in README's shell blocks, with
    lines continued by a backslash joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hashexit"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "build-hash", "infer", "flops-report", "ablate-consistency",
        "difficulty"}
    for argv in commands:
        cli.build_parser().parse_args(argv)  # a ConfigError names the flag


def test_readme_flags_exist():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    options = {flag for p in [parser, *sub.choices.values()]
               for action in p._actions for flag in action.option_strings}
    named = {flag for line in README.splitlines() if "pip " not in line
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
    assert named and named <= options, sorted(named - options)


def readme_package_names():
    """Each dotted name that opens a backticked span of README's prose and
    starts with `hashexit`, a submodule or an exported name, such as
    `errors.packed_layout` or `HashTable.exits(ids, L)`; file names such
    as `flops.csv` aside."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if dotted is None:
            continue
        first, *_, last = dotted.group().split(".")
        if last not in FILE_SUFFIXES and (
                first == "hashexit" or first in SUBMODULES
                or first in hashexit.__all__):
            names.add(dotted.group())
    return sorted(names)


def test_readme_names_resolve():
    names = readme_package_names()
    dead = []
    for name in names:
        first, *rest = name.removeprefix("hashexit.").split(".")
        obj = (importlib.import_module(f"hashexit.{first}")
               if first in SUBMODULES else getattr(hashexit, first, None))
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            dead.append(name)
    assert names and not dead, dead
