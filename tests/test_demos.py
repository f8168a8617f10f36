"""Every demo script, and every python block of README.md, runs to
completion against the package in src/; every `hashexit` command and
`--flag` that README.md names exists in the CLI, the toy defaults it lists
are those of the experiments functions, every dotted name of the package
it puts in backticks resolves, and every call of an exported name it puts
in backticks binds to that name's signature."""

import argparse
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hashexit
from hashexit import cli, experiments

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


def test_readme_toy_defaults_match_the_run_functions():
    # README lists the defaults the two toy commands share; the run
    # functions' signatures hold them (cli.build_parser holds none)
    span, = re.findall(r"`(--d \d[^`]*)`", README)
    words = span.split()
    listed = dict(zip(words[0::2], words[1::2]))
    assert len(listed) == 8
    for run in (experiments.run_consistency_ablation,
                experiments.run_difficulty_pipeline):
        params = inspect.signature(run).parameters
        defaults = {flag: params[flag[2:].replace("-", "_")].default
                    for flag in listed}
        assert {flag: type(default)(listed[flag])
                for flag, default in defaults.items()} == defaults, run


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


def resolve(name):
    """The package object a dotted README name stands for, or None."""
    first, *rest = name.removeprefix("hashexit.").split(".")
    obj = (importlib.import_module(f"hashexit.{first}")
           if first in SUBMODULES else getattr(hashexit, first, None))
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_readme_names_resolve():
    names = readme_package_names()
    dead = [name for name in names if resolve(name) is None]
    assert names and not dead, dead


def readme_call_forms():
    """Each backticked span of README's prose that is a whole call of an
    exported name, `name(args)` or `Class.method(args)`, with its line
    breaks folded: the name and its argument list."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S)
    forms = []
    for span in re.findall(r"`([^`]+)`", prose):
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\((.*)\)", " ".join(span.split()))
        if call and call.group(1).split(".")[0] in hashexit.__all__:
            forms.append(call.groups())
    return forms


def binds(name, args):
    """Whether `args`, a README argument list such as `ids, L` or
    `heads=, segments=`, binds to the signature of `name`: placeholders
    stand for the values, and a method (`Class.method`) gets one for
    self."""
    obj = resolve(name)
    if obj is None:
        return False
    owner, _, attr = name.rpartition(".")
    owner = resolve(owner) if owner else None
    method = inspect.isclass(owner) and inspect.isfunction(
        inspect.getattr_static(owner, attr))
    positional, keywords = ["self"] if method else [], {}
    for arg in filter(None, (a.strip() for a in args.split(","))):
        keyword = re.match(r"(\w+)=", arg)
        if keyword:
            keywords[keyword.group(1)] = arg
        else:
            positional.append(arg)
    try:
        inspect.signature(obj).bind(*positional, **keywords)
    except TypeError:
        return False
    return True


def test_readme_call_forms_bind():
    # a README form of a call that the code no longer takes, say a dropped
    # or added parameter, fails here
    forms = readme_call_forms()
    stale = [f"{name}({args})" for name, args in forms if not binds(name, args)]
    assert len(forms) >= 10 and not stale, stale


def readme_layout_modules():
    """Each `name.py` that README's Layout block names, repeats kept."""
    block, = re.findall(r"^## Layout\n.*?^```\n(.*?)^```$", README,
                        flags=re.M | re.S)
    return re.findall(r"(?<![\w.])(\w+)\.py\b", block)


def test_readme_layout_indexes_every_module_docstring():
    # Layout is README's index into the module docstrings, which hold the
    # mechanism: it names each module once and none that does not exist
    modules = sorted(SUBMODULES - {"__init__", "__main__"})
    assert sorted(readme_layout_modules()) == modules
    for name in modules:
        doc = importlib.import_module(f"hashexit.{name}").__doc__
        assert doc and doc.strip(), name
