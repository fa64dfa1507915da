"""List the functions of ``src/zariski/`` and of the paper's verifiers in
``tests/paper.py`` that no Tier-1 test calls.

    python3 tools/uncalled.py

It runs the Tier-1 suite (``tests/``) in this process under
``sys.setprofile``, records the code of every Python call, and prints
``module:line name`` for each function or method defined in
``src/zariski/*.py`` or ``tests/paper.py`` (nested ones included) whose
code never ran.  Entries of ``ALLOWED`` are printed with their reason and
are accepted; any other uncalled function makes the exit status 1, and so
does a failing suite.  The name guard in ``tests/test_acceptance.py``
misses a second implementation whose name collides with another one
(``normal_form``, ``pieces``) and operators; this report does not.  The
traced suite takes about 95 s on 2 vCPUs, so it is not part of Tier-1.
Standard library only, apart from pytest, which runs the suite.
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


def trace_calls(run):
    """Call ``run()`` under a profile hook; ``(realpath, first line)`` of
    every Python function that was entered.  Restores any outer hook."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    outer = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(outer[0])
        threading.setprofile(outer[1])
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}


def traced_files():
    """The files whose functions the report covers: the package's modules
    and the paper's verifiers, which only the tests call."""
    return sorted(os.path.join(PACKAGE, n) for n in os.listdir(PACKAGE) if n.endswith(".py")) + [PAPER]


def report(paths, ran, allowed):
    """The report lines for the uncalled functions of ``paths`` and whether
    every one of them is allowed."""
    lines, ok = [], True
    for path in sorted(paths):
        module = os.path.splitext(os.path.basename(path))[0]
        real = os.path.realpath(path)
        for line, name in defined(path):
            if (real, line) in ran:
                continue
            reason = next((r for pat, r in allowed.items() if fnmatch.fnmatchcase(name, pat)), None)
            lines.append(f"{module}:{line} {name}" + (f"  (allowed: {reason})" if reason else ""))
            ok = ok and reason is not None
    return lines, ok


def main():
    import pytest

    args = [os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider"]
    status = []
    ran = trace_calls(lambda: status.append(pytest.main(args)))
    lines, ok = report(traced_files(), ran, ALLOWED)
    print("\n".join(lines))
    if status[0] != 0:
        print(f"the suite failed (pytest exit {status[0]}); the report is partial", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
