"""List the functions of ``src/zariski/`` and of the paper's verifiers in
``tests/paper.py`` that no Tier-1 test calls, and the statements of the
package that no Tier-1 test runs.

    python3 tools/uncalled.py

It runs the Tier-1 suite (``tests/``) in this process under
``sys.settrace``, records the code of every Python call and, in the
package's frames alone (``cli.py`` aside), every line that ran.  It prints
``module:line name`` for each function or method defined in
``src/zariski/*.py`` or ``tests/paper.py`` (nested ones included) whose
code never ran, and then ``module:line function: statement`` for each
simple statement inside a package function of which no line ran.
Docstrings, ``raise`` statements, ``return NotImplemented`` and the bodies
of ``__repr__`` and ``__str__`` are left out: a refusal and a display need
no test to exist.  Entries of ``ALLOWED`` and ``ALLOWED_STATEMENTS`` are
printed with their reason and are accepted; anything else unrun makes the
exit status 1, and so does a failing suite.  The name guard in
``tests/test_acceptance.py`` misses a second implementation whose name
collides with another one (``normal_form``, ``pieces``) and operators; this
report does not.  The traced suite takes about 2 minutes on 2 vCPUs, so it is
not part of Tier-1.  Standard library only, apart from pytest, which runs
the suite.
"""

import ast
import fnmatch
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "zariski")
PAPER = os.path.join(ROOT, "tests", "paper.py")

# qualified-name pattern -> why the function may stay untested
ALLOWED = {
    "*.__repr__": "debugging display, not an answer of the package",
    "*.__str__": "debugging display, not an answer of the package",
}

# "function: statement" pattern -> why the statement may stay unrun
ALLOWED_STATEMENTS = {}


def defined(path):
    """``(first line, qualified name)`` of every function in one file.

    The first line is the code object's: a decorated function starts at
    its first decorator."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((line, prefix + node.name))
                visit(node.body, f"{prefix}{node.name}.")

    with open(path) as fh:
        visit(ast.parse(fh.read()).body, "")
    return out


def statements(path):
    """``(first line, last line, function, first line of text)`` of every
    simple statement inside a function of one file, nested ones included,
    but for the ones a test need not run (see the module docstring).  A
    compound statement is left to the statements it holds."""
    with open(path) as fh:
        source = fh.read()
    out = []

    def visit(body, prefix, function):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in ("__repr__", "__str__"):
                    inner = None if isinstance(node, ast.ClassDef) else prefix + node.name
                    visit(node.body, f"{prefix}{node.name}.", inner or function)
            elif hasattr(node, "body"):
                for part in [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]:
                    visit(part, prefix, function)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, prefix, function)
            elif function and not (
                isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal))  # a declaration runs no code
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                or isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"
            ):
                text = ast.get_source_segment(source, node).splitlines()[0]
                out.append((node.lineno, node.end_lineno, function, text))

    visit(ast.parse(source).body, "", None)
    return out


def trace(run, paths):
    """Call ``run()`` under a trace hook.  Returns ``(called, lines)``:
    ``(realpath, first line)`` of every Python function that was entered,
    and ``(realpath, line)`` of every line that ran in the files ``paths``,
    whose frames alone get a line hook.  Restores any outer hook."""
    called, lines, watched = set(), set(), {}
    files = {os.path.realpath(p) for p in paths}

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def hook(frame, event, arg):
        code = frame.f_code
        called.add(code)
        name = code.co_filename
        if name not in watched:
            watched[name] = os.path.realpath(name) in files
        return line if watched[name] else None

    outer = sys.gettrace(), threading.gettrace()
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return (
        {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called},
        {(os.path.realpath(name), n) for name, n in lines},
    )


def traced_files():
    """The files whose functions the report covers: the package's modules
    and the paper's verifiers, which only the tests call."""
    return sorted(os.path.join(PACKAGE, n) for n in os.listdir(PACKAGE) if n.endswith(".py")) + [PAPER]


def statement_files():
    """The files whose statements the report covers: the package's modules
    but ``cli.py``, the layer of text input and output over them."""
    return [p for p in traced_files()[:-1] if os.path.basename(p) != "cli.py"]


def _listed(unrun, allowed):
    """The report lines for ``(module, line, key)`` entries, each key
    matched against the patterns of ``allowed``, and whether every entry is
    allowed."""
    lines, ok = [], True
    for module, line, key in unrun:
        reason = next((r for pat, r in allowed.items() if fnmatch.fnmatchcase(key, pat)), None)
        lines.append(f"{module}:{line} {key}" + (f"  (allowed: {reason})" if reason else ""))
        ok = ok and reason is not None
    return lines, ok


def _module(path):
    return os.path.splitext(os.path.basename(path))[0]


def report(paths, ran, allowed):
    """The report lines for the uncalled functions of ``paths`` and whether
    every one of them is allowed."""
    return _listed([
        (_module(path), line, name)
        for path in sorted(paths) for line, name in defined(path)
        if (os.path.realpath(path), line) not in ran
    ], allowed)


def statement_report(paths, ran, allowed):
    """The report lines for the statements of ``paths`` of which no line is
    in ``ran``, keyed ``function: statement``, and whether every one of
    them is allowed."""
    return _listed([
        (_module(path), first, f"{function}: {text}")
        for path in sorted(paths) for first, last, function, text in statements(path)
        if not any((os.path.realpath(path), n) in ran for n in range(first, last + 1))
    ], allowed)


def main():
    import pytest

    args = [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"]
    status = []
    called, ran = trace(lambda: status.append(pytest.main(args)), statement_files())
    functions, functions_ok = report(traced_files(), called, ALLOWED)
    unrun, unrun_ok = statement_report(statement_files(), ran, ALLOWED_STATEMENTS)
    print("\n".join(["uncalled functions:"] + functions + ["unrun statements:"] + unrun))
    if status[0] != 0:
        print(f"the suite failed (pytest exit {status[0]}); the report is partial", file=sys.stderr)
        return 1
    return 0 if functions_ok and unrun_ok else 1


if __name__ == "__main__":
    sys.exit(main())
