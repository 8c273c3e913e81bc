"""Two-pass lint driver: collect every module, then analyze.

Pass 1 (*collect*) parses each file once and builds the whole-program
symbol table + call graph (:mod:`repro.lint.callgraph`).  Pass 2
(*analyze*) runs the per-file checkers on every module and the
whole-program checkers (SIM009-SIM011) on the assembled
:class:`~repro.lint.callgraph.Program`, then applies suppression
comments per file.

Suppression grammar (spaces around ``=`` and around commas are fine)::

    # sim-lint: disable                      silence every rule, this line
    # sim-lint: disable=SIM001, SIM004       silence listed rules, this line
    # sim-lint: disable-file=SIM002          silence listed rules, whole file
    # sim-lint: disable-file                 silence everything, whole file

Anything after the rule list is free-text justification.  A
``sim-lint:`` comment that does not parse, or that names an unknown
rule, is itself reported as SIM000 — a typo'd directive must never
silently change what is linted.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint import callgraph as callgraph_mod
from repro.lint.findings import Finding, RULES
from repro.lint.rules import CHECKERS, LintContext, PROGRAM_CHECKERS, ProgramContext

#: Directory names skipped while *recursing* (explicitly-listed files
#: are always linted — that is how the test suite lints its fixture
#: files, which contain violations on purpose).
DEFAULT_EXCLUDED_DIRS = {"fixtures", "__pycache__", ".git", ".hypothesis", ".venv"}

#: Comma-separated rule list: ``SIM001`` / ``SIM001,SIM004`` / spaces ok.
_RULE_LIST = r"[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*"

#: The line form, ``disable[=RULES]``, on the flagged line.  ``\s*=\s*``
#: accepts spaces around ``=`` — they used to demote the directive to a
#: bare ``disable`` that silenced every rule on the line.  The bare form
#: must end the comment: ``disable SIM001`` (missing ``=``) suppresses
#: nothing and is reported as SIM000 instead of widening to all rules.
_LINE_SUPPRESS = re.compile(
    rf"#\s*sim-lint:\s*disable(?:\s*=\s*({_RULE_LIST})(?=\s|$)|\s*$)"
)
#: The file form, ``disable-file[=RULES]``, anywhere in the file.
_FILE_SUPPRESS = re.compile(
    rf"#\s*sim-lint:\s*disable-file(?:\s*=\s*({_RULE_LIST})(?=\s|$)|\s*$)"
)

#: Any ``sim-lint:`` comment at all — used to validate directives.
_DIRECTIVE = re.compile(r"#\s*sim-lint:\s*(?P<text>.*)$")
#: A well-formed directive at the start of the comment text.
_DIRECTIVE_SHAPE = re.compile(
    rf"^(?P<kind>disable-file|disable)"
    rf"(?:\s*=\s*(?P<rules>{_RULE_LIST}))?(?=\s|$)"
)


def _parse_rule_list(spec: Optional[str]) -> Optional[Set[str]]:
    """None means "all rules" (a bare ``disable``)."""
    if spec is None:
        return None
    rules = {part.strip().upper() for part in spec.split(",") if part.strip()}
    return rules or None


#: sentinel distinguishing "no directive on this line" from a bare
#: ``disable`` (stored as None = all rules off).
_NO_DIRECTIVE = object()


def _suppressed(
    finding: Finding,
    line_off: Dict[int, Optional[Set[str]]],
    file_off: Optional[Set[str]],
) -> bool:
    if finding.rule == "SIM000":
        # Directive errors and syntax errors are never suppressible —
        # otherwise a malformed directive could silence its own report.
        return False
    if file_off is not None and (not file_off or finding.rule in file_off):
        return True
    rules = line_off.get(finding.line, _NO_DIRECTIVE)
    if rules is _NO_DIRECTIVE:
        return False
    return rules is None or finding.rule in rules


def _line_suppressions(
    comments: List[Tuple[int, int, str]]
) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rules on that line (None = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, _, text in comments:
        match = _LINE_SUPPRESS.search(text)
        if match:
            out[lineno] = _parse_rule_list(match.group(1))
    return out


def _file_suppressions(
    comments: List[Tuple[int, int, str]]
) -> Optional[Set[str]]:
    """Set of file-wide disabled rules; empty set = all; None = none.

    Both suppression forms are matched against real comment tokens only
    — a directive quoted in a docstring or string literal used to
    *suppress* (while never being validated); now it does neither.
    """
    disabled: Optional[Set[str]] = None
    for _, _, text in comments:
        match = _FILE_SUPPRESS.search(text)
        if match:
            rules = _parse_rule_list(match.group(1))
            if rules is None:
                return set()  # bare disable-file: everything off
            disabled = (disabled or set()) | rules
    return disabled


def _comment_tokens(lines: List[str]) -> List[Tuple[int, int, str]]:
    """(line, col, text) of every real comment — strings don't count."""
    source = "\n".join(lines) + "\n"
    comments: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tail: the ast pass reports SIM000 already
    return comments


def _directive_findings(
    comments: List[Tuple[int, int, str]], path: str
) -> List[Finding]:
    """SIM000 for every malformed or unknown ``sim-lint:`` directive."""
    findings: List[Finding] = []
    for lineno, col, comment in comments:
        match = _DIRECTIVE.search(comment)
        if match is None:
            continue
        text = match.group("text").strip()
        shape = _DIRECTIVE_SHAPE.match(text)
        if shape is None:
            findings.append(Finding(
                path=path,
                line=lineno,
                col=col + match.start() + 1,
                rule="SIM000",
                message=(
                    f"unrecognized sim-lint directive {text!r} — expected "
                    "disable[=RULE,...] or disable-file[=RULE,...]"
                ),
            ))
            continue
        spec = shape.group("rules")
        if spec is None:
            # Bare disable: allowed only when nothing trails it, so a
            # mistyped rule list cannot silently widen to "all rules".
            remainder = text[shape.end():].strip()
            if remainder:
                findings.append(Finding(
                    path=path,
                    line=lineno,
                    col=col + match.start() + 1,
                    rule="SIM000",
                    message=(
                        f"bare {shape.group('kind')!r} directive followed by "
                        f"{remainder!r} — name the rules explicitly "
                        "(disable=RULE,...) or remove the trailing text"
                    ),
                ))
            continue
        for code in (_parse_rule_list(spec) or set()):
            if code not in RULES:
                findings.append(Finding(
                    path=path,
                    line=lineno,
                    col=col + match.start() + 1,
                    rule="SIM000",
                    message=(
                        f"unknown rule {code!r} in sim-lint directive — "
                        f"known rules: {', '.join(sorted(RULES))}"
                    ),
                ))
    return findings


# --------------------------------------------------------------------------
# Pass 1: collect
# --------------------------------------------------------------------------

def _collect_module(
    source: str, path: str, in_src: Optional[bool]
) -> Tuple[Optional[callgraph_mod.ModuleInfo], List[Finding]]:
    """Parse one file into a ModuleInfo (or a SIM000 syntax finding)."""
    posix = Path(path).absolute().as_posix()
    if in_src is None:
        in_src = "/src/" in posix
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule="SIM000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    module = callgraph_mod.collect_module(
        tree, path=path, posix=posix, in_src=in_src,
        lines=source.splitlines(),
    )
    return module, []


# --------------------------------------------------------------------------
# Pass 2: analyze
# --------------------------------------------------------------------------

def _analyze(
    modules: List[callgraph_mod.ModuleInfo],
    parse_findings: List[Finding],
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run per-file + whole-program checkers, then apply suppressions."""
    selected = (
        set(rules) if rules is not None
        else set(CHECKERS) | set(PROGRAM_CHECKERS) | {"SIM000"}
    )
    raw: Dict[str, List[Finding]] = {}
    for finding in parse_findings:
        raw.setdefault(finding.path, []).append(finding)

    comments_by_path: Dict[str, List[Tuple[int, int, str]]] = {}
    for module in modules:
        ctx = LintContext(
            path=module.path,
            posix=module.posix,
            tree=module.tree,
            in_src=module.in_src,
            aliases=module.aliases,
            parents=module.parents,
        )
        bucket = raw.setdefault(module.path, [])
        comments = _comment_tokens(module.lines)
        comments_by_path[module.path] = comments
        if "SIM000" in selected:
            bucket.extend(_directive_findings(comments, module.path))
        for code, checker in CHECKERS.items():
            if code in selected:
                bucket.extend(checker(ctx))

    if selected & set(PROGRAM_CHECKERS):
        program = callgraph_mod.Program(modules)
        pctx = ProgramContext(program=program,
                              callgraph=callgraph_mod.CallGraph(program))
        for code, checker in PROGRAM_CHECKERS.items():
            if code in selected:
                for finding in checker(pctx):
                    raw.setdefault(finding.path, []).append(finding)

    findings: List[Finding] = []
    for path, bucket in raw.items():
        comments = comments_by_path.get(path, [])
        file_off = _file_suppressions(comments)
        line_off = _line_suppressions(comments)
        findings.extend(
            finding for finding in bucket
            if not _suppressed(finding, line_off, file_off)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# --------------------------------------------------------------------------
# Public entry points (same surface as the per-file engine)
# --------------------------------------------------------------------------

def lint_source(
    source: str,
    path: str,
    in_src: Optional[bool] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module given as text.

    The module forms a one-file program, so the whole-program rules run
    too (spawn sites and encoder/decoder pairs must then live in the
    same file — which is how the fixture tests exercise them).

    ``in_src`` overrides the src-scoping heuristic — pass True to apply
    the src-only rules regardless of where the file lives.
    """
    module, parse_findings = _collect_module(source, path, in_src)
    modules = [module] if module is not None else []
    return _analyze(modules, parse_findings, rules=rules)


def lint_file(
    path: "str | Path",
    in_src: Optional[bool] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path), in_src=in_src, rules=rules)


def iter_python_files(
    paths: Sequence["str | Path"],
    excluded_dirs: Optional[Set[str]] = None,
) -> List[Path]:
    """Expand files/directories into a deterministic list of .py files."""
    if excluded_dirs is None:
        excluded_dirs = DEFAULT_EXCLUDED_DIRS
    out: List[Path] = []
    seen: Set[Path] = set()

    def add(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(candidate)

    for raw in paths:
        path = Path(raw)
        if path.is_file():
            add(path)  # explicit files bypass the excludes
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in sorted(path.rglob("*.py")):
            if any(part in excluded_dirs for part in candidate.parts):
                continue
            add(candidate)
    return out


def lint_paths(
    paths: Sequence["str | Path"],
    excluded_dirs: Optional[Set[str]] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint every python file under ``paths`` as one program.

    All files are collected first (pass 1) so the call graph spans the
    entire invocation; the whole-program rules then see every spawn
    site and class, wherever it lives (pass 2).
    """
    modules: List[callgraph_mod.ModuleInfo] = []
    parse_findings: List[Finding] = []
    for path in iter_python_files(paths, excluded_dirs=excluded_dirs):
        text = Path(path).read_text(encoding="utf-8")
        module, bad = _collect_module(text, str(path), in_src=None)
        parse_findings.extend(bad)
        if module is not None:
            modules.append(module)
    return _analyze(modules, parse_findings, rules=rules)
