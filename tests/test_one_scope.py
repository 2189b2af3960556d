"""Structural guards: a run waits, cancels and starts threads in one place,
and does its accounting in one place; a fresh index is built inside the
implicit pathway; the CLI declares no setting's flag by hand.

Every blocking wait of a run goes through gateway.RunScope, which is what
lets a test scope force the order in which calls are seen to finish. These
checks read the source of src/sgcr, so a wait added anywhere else fails
here before it can make a run's schedule unforceable. Likewise the
pipeline alone counts a pathway's calls and stamps the run id on its stats,
so a pathway that counts for itself fails here.
"""

from __future__ import annotations

import ast
from dataclasses import fields

from conftest import REPO_ROOT
from sgcr.config import RunConfig

SOURCE = REPO_ROOT / "src" / "sgcr"
SCOPE = ("gateway.py", "RunScope")

# Calls that block on a future or an event, or that make threads or
# events. A method call counts by its name, whatever it is called on,
# except that code outside the scope may call the scope's own waits.
BLOCKING_METHODS = {"result", "exception", "wait", "wait_for"}
CONSTRUCTORS = {"Event", "Condition", "Barrier", "Semaphore", "Thread", "ThreadPoolExecutor"}
FUNCTIONS = {"as_completed"}
# The run scope is passed around as pool (pool=), held as scope in the
# pipeline and as _scope by a pending ensemble.
SCOPE_NAMES = {"pool", "scope", "_scope"}


def _scope_lines() -> range:
    module, name = SCOPE
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    (scope,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name
    ]
    return range(scope.lineno, scope.end_lineno + 1)


def _called_name(call: ast.Call) -> tuple[str, str]:
    """(receiver, name) of a call: ("", "f") for f(), ("x", "m") for x.m()."""
    func = call.func
    if isinstance(func, ast.Name):
        return "", func.id
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id, func.attr
        if isinstance(receiver, ast.Attribute):
            return receiver.attr, func.attr
        return "?", func.attr
    return "?", ""


def _offences() -> list[str]:
    inside = _scope_lines()
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if path.name == SCOPE[0] and node.lineno in inside:
                continue
            receiver, name = _called_name(node)
            through_scope = receiver in SCOPE_NAMES and name in ("wait", "wait_any")
            if (
                (name in BLOCKING_METHODS and receiver and not through_scope)
                or name in CONSTRUCTORS
                or name in FUNCTIONS
            ):
                found.append(f"{path.name}:{node.lineno}: {receiver}.{name}(".lstrip("."))
    return found


def test_every_wait_thread_and_event_of_a_run_is_in_the_run_scope():
    assert _offences() == []


def test_the_scope_itself_holds_the_blocking_calls_and_the_pools():
    source = (SOURCE / SCOPE[0]).read_text(encoding="utf-8").splitlines()
    inside = _scope_lines()
    for pattern in (".result(", "._changed.wait(", "ThreadPoolExecutor("):
        lines = [number for number, line in enumerate(source, 1) if pattern in line]
        assert lines and all(number in inside for number in lines), pattern


def test_no_schedule_knob_or_pooled_backend_is_left_in_the_program():
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for gone in ("SGCR_TEST_JITTER", "PooledBackend", "threading.Event("):
            assert gone not in text, f"{path.name} mentions {gone}"


# The pipeline hands each pathway one CountedBackend and adds the count and
# the run id to the pathway's stats; the pathways only review.
ACCOUNTANT = "pipeline.py"
PATHWAYS = ("explicit.py", "implicit.py")
ACCOUNTING_NAMES = {"run_id", "CountedBackend"}


def _names(tree: ast.AST) -> set[str]:
    """Every name a module uses or binds (variables, attributes, parameters,
    keywords, imports), and each string constant that is a whole word."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname or node.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_only_the_pipeline_counts_calls_and_the_pathways_never_see_the_run_id():
    counters = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node)[1] == "CountedBackend":
                counters.add(path.name)
    assert counters == {ACCOUNTANT}
    for name in PATHWAYS:
        tree = ast.parse((SOURCE / name).read_text(encoding="utf-8"))
        assert _names(tree) & ACCOUNTING_NAMES == set(), name


# A fresh index is built inside the implicit pathway, under its soft fail:
# the pipeline passes build_index on as an argument and never calls it, so
# a failed build cannot fail the run again.
def test_the_pipeline_hands_build_index_to_the_implicit_pathway_and_never_calls_it():
    tree = ast.parse((SOURCE / ACCOUNTANT).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = [node.lineno for node in calls if _called_name(node)[1] == "build_index"]
    assert called == []
    handed = [
        node.lineno
        for node in calls
        if any(isinstance(arg, ast.Name) and arg.id == "build_index" for arg in node.args)
    ]
    assert handed


# A setting is declared once, as its RunConfig field: the CLI builds its
# flag from that field in one helper and names no setting anywhere else.
CLI = ("cli.py", "_add_settings")


def _setting_spellings() -> set[str]:
    """Each setting's name and every option string the CLI could give it."""
    spellings = set()
    for field in fields(RunConfig):
        dashed = field.name.replace("_", "-")
        spellings.update((field.name, f"--{dashed}", f"--no-{dashed}"))
        spellings.update(field.metadata.get("flags") or ())
    return spellings


def _hand_declared_settings() -> list[str]:
    """add_argument calls outside the helper that name a setting: as an
    option string, a positional's name or a dest."""
    module, name = CLI
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    helpers = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    inside = {line for node in helpers for line in range(node.lineno, node.end_lineno + 1)}
    found = [] if helpers else [f"{module}: no {name}"]
    spellings = _setting_spellings()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _called_name(node)[1] == "add_argument"):
            continue
        if node.lineno in inside:
            continue
        named = [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
        named += [
            keyword.value.value
            for keyword in node.keywords
            if keyword.arg == "dest" and isinstance(keyword.value, ast.Constant)
        ]
        for spelling in named:
            if spelling in spellings:
                found.append(f"{module}:{node.lineno}: {spelling}")
    return found


def test_the_cli_builds_every_setting_flag_from_its_field_in_one_helper():
    assert _hand_declared_settings() == []
