"""Structural guard: a run waits, cancels and starts threads in one place.

Every blocking wait of a run goes through gateway.RunScope, which is what
lets a test scope force the order in which calls are seen to finish. These
checks read the source of src/sgcr, so a wait added anywhere else fails
here before it can make a run's schedule unforceable.
"""

from __future__ import annotations

import ast

from conftest import REPO_ROOT

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
