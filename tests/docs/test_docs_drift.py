"""Keep the docs in lockstep with the code (``make docs-check``).

Four invariants, derived from the code so the test cannot itself
drift:

1. every CLI verb (from the real ``build_parser()``) is mentioned as
   ``repro <verb>`` somewhere in README.md or docs/;
2. every package under ``src/repro/`` is mentioned as ``repro.<pkg>``
   in the docs tree, and ``docs/README.md`` links every docs page;
3. every public module carries a docstring;
4. every keyword a ``Name(kw=..., ...)`` call in ``docs/api.md`` names
   binds to ``inspect.signature(Name)``, where ``Name`` resolves through
   ``repro`` or a ``repro.<pkg>`` export (a table row pairing `` `name` ``
   with `` `(args)` `` counts as the call ``name(args)``).

Removing a verb or package from the docs — or adding one to the code
without documenting it — fails this suite, and so does a keyword the
code no longer takes.
"""

import ast
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent.parent
DOCS = REPO / "docs"
SRC = REPO / "src" / "repro"


def _docs_corpus() -> str:
    parts = [(REPO / "README.md").read_text(encoding="utf-8")]
    for page in sorted(DOCS.glob("*.md")):
        parts.append(page.read_text(encoding="utf-8"))
    return "\n".join(parts)


def _cli_verbs():
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return sorted(action.choices)
    raise AssertionError("CLI has no subcommands")


def _packages():
    return sorted(
        p.name for p in SRC.iterdir() if p.is_dir() and (p / "__init__.py").exists()
    )


@pytest.mark.parametrize("verb", _cli_verbs())
def test_every_cli_verb_documented(verb):
    assert f"repro {verb}" in _docs_corpus(), (
        f"CLI verb '{verb}' exists in build_parser() but 'repro {verb}' "
        f"appears nowhere in README.md or docs/ — document it "
        f"(docs/README.md pairs every verb with a page)"
    )


@pytest.mark.parametrize("package", _packages())
def test_every_package_documented(package):
    assert f"repro.{package}" in _docs_corpus(), (
        f"package 'repro.{package}' exists under src/repro/ but is never "
        f"mentioned in README.md or docs/ — add it to the package index "
        f"in docs/README.md"
    )


def test_docs_index_links_every_page():
    index = (DOCS / "README.md").read_text(encoding="utf-8")
    for page in sorted(DOCS.glob("*.md")):
        if page.name == "README.md":
            continue
        assert f"({page.name})" in index, (
            f"docs/{page.name} exists but docs/README.md does not link it"
        )


def _modules():
    return sorted(
        path.relative_to(REPO).as_posix() for path in SRC.rglob("*.py")
    )


@pytest.mark.parametrize("relpath", _modules())
def test_every_module_has_docstring(relpath):
    tree = ast.parse((REPO / relpath).read_text(encoding="utf-8"))
    if relpath.endswith("__main__.py"):
        return  # entry-point shims may be bare
    assert ast.get_docstring(tree), f"{relpath} has no module docstring"


#: An inline code span (single backticks).
_CODE_SPAN = re.compile(r"(?<!`)`([^`]+)`(?!`)")
#: A table row pairing a symbol with its signature: | `name` | `(args)` |
_TABLE_ROW = re.compile(r"^\| `(\w+)` \| `(\([^`]*\))`", re.M)
#: A call: a (dotted) name not itself preceded by a name or a dot.
_CALL = re.compile(r"(?<![\w.])([A-Za-z_][\w.]*)\(")
_KEYWORD = re.compile(r"\s*([A-Za-z_]\w*)\s*=(?!=)")


def _call_arguments(text, start):
    """The top-level arguments of the call whose ``(`` ends at ``start``."""
    depth, argument, arguments = 0, "", []
    for char in text[start:]:
        if depth == 0 and char in ",)":
            arguments.append(argument)
            if char == ")":
                return arguments
            argument = ""
            continue
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        argument += char
    return None  # unbalanced: not a call


def _resolve(name):
    """``name`` as a ``repro`` or ``repro.<pkg>`` export, or None.

    A name already starting with ``repro.`` is resolved as that path.
    """
    if name.startswith("repro."):
        prefixes = [""]
    else:
        prefixes = ["repro."] + [f"repro.{package}." for package in _packages()]
    for prefix in prefixes:
        try:
            return pkgutil.resolve_name(prefix + name)
        except (ImportError, AttributeError, ValueError):
            continue
    return None


def _api_signatures():
    """``(name, keywords)`` for every keyword call in docs/api.md that resolves."""
    text = (DOCS / "api.md").read_text(encoding="utf-8")
    code = _CODE_SPAN.findall(text)
    code += [name + args for name, args in _TABLE_ROW.findall(text)]
    found = []
    for snippet in code:
        for call in _CALL.finditer(snippet):
            arguments = _call_arguments(snippet, call.end()) or ()
            keywords = [
                match.group(1)
                for match in map(_KEYWORD.match, arguments)
                if match
            ]
            if keywords and _resolve(call.group(1)) is not None:
                found.append((call.group(1), tuple(keywords)))
    return found


def test_api_signatures_found():
    # Guards the parser: a pattern that matches nothing passes vacuously.
    names = {name for name, _ in _api_signatures()}
    assert {"SimObserver", "World", "check_atomicity", "build_cas_system"} <= names


@pytest.mark.parametrize(
    "name, keywords",
    [pytest.param(name, keywords, id=name) for name, keywords in _api_signatures()],
)
def test_api_signature_binds(name, keywords):
    signature = inspect.signature(_resolve(name))
    parameters = signature.parameters
    takes_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    unknown = [k for k in keywords if k not in parameters and not takes_any]
    assert not unknown, (
        f"docs/api.md passes {unknown} to {name}, "
        f"but its signature is {name}{signature}"
    )
