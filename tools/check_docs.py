#!/usr/bin/env python3
"""Docs health check, run by the CI `docs` job (and freely by hand).

Four gates:

1. Link check: every relative markdown link `[text](path)` in the repo's
   *.md files must point at an existing file or directory (external http/
   mailto links and pure #anchors are skipped; a trailing #anchor on a file
   link is stripped before the existence check).

2. Module README coverage: every `src/<module>/` directory must contain a
   README.md, and docs/ARCHITECTURE.md's module index must reference it
   (substring `src/<module>/README.md`), so the per-module indexes stay
   discoverable from the architecture entry point.

3. Test module registration: every `tests/<module>/` directory holding
   `*_test.cpp` files must be listed in tests/CMakeLists.txt's
   asyncml_add_test_module foreach — an unregistered directory is a test
   suite that silently never runs.

4. Config member names: every `SolverConfig::x`, `StoreConfig::x` or
   `DiskTierConfig::x` a doc names (slash lists like `StoreConfig::a/b`
   included) must be a member of that struct in its header, so a removed
   knob cannot live on in the docs. Only reference docs are checked: every
   *.md below a subdirectory plus the root README.md. The other root-level
   files (change log, roadmap, planning notes) are history and plans, and
   may name knobs that are gone or not yet added.

Exit code 0 = healthy; 1 = problems (each printed on its own line).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SKIP_DIRS = {".git", ".claude", "build", "bench_results", "third_party"}
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
CONFIG_HEADERS = {
    "SolverConfig": "src/optim/solver_config.hpp",
    "StoreConfig": "src/store/store_config.hpp",
    "DiskTierConfig": "src/store/store_config.hpp",
}
CONFIG_REF = re.compile(
    r"\b(" + "|".join(CONFIG_HEADERS) + r")::(\w+(?:/\w+)*)"
)
CONFIG_ROOT_DOCS = {"README.md"}


def markdown_files() -> list[Path]:
    files = []
    for path in sorted(REPO.rglob("*.md")):
        parts = set(path.relative_to(REPO).parts)
        if parts & SKIP_DIRS:
            continue
        files.append(path)
    return files


def check_links(md: Path) -> list[str]:
    problems = []
    for target in LINK.findall(md.read_text(encoding="utf-8")):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        resolved = (md.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(
                f"{md.relative_to(REPO)}: broken link -> {target}"
            )
    return problems


def check_module_readmes() -> list[str]:
    problems = []
    architecture = REPO / "docs" / "ARCHITECTURE.md"
    arch_text = architecture.read_text(encoding="utf-8") if architecture.exists() else ""
    if not arch_text:
        problems.append("docs/ARCHITECTURE.md is missing")
    for module_dir in sorted((REPO / "src").iterdir()):
        if not module_dir.is_dir():
            continue
        module = module_dir.name
        if not (module_dir / "README.md").exists():
            problems.append(f"src/{module}/ has no README.md")
        elif f"src/{module}/README.md" not in arch_text:
            problems.append(
                f"docs/ARCHITECTURE.md does not reference src/{module}/README.md"
            )
    return problems


def check_test_modules() -> list[str]:
    problems = []
    cmake = REPO / "tests" / "CMakeLists.txt"
    cmake_text = cmake.read_text(encoding="utf-8") if cmake.exists() else ""
    if not cmake_text:
        return ["tests/CMakeLists.txt is missing"]
    match = re.search(r"foreach\(MODULE\s+([^)]*)\)", cmake_text)
    registered = set(match.group(1).split()) if match else set()
    for module_dir in sorted((REPO / "tests").iterdir()):
        if not module_dir.is_dir() or not list(module_dir.glob("*_test.cpp")):
            continue
        if module_dir.name not in registered:
            problems.append(
                f"tests/{module_dir.name}/ is not registered in "
                "tests/CMakeLists.txt (asyncml_add_test_module foreach)"
            )
    return problems


def struct_members(header_text: str, struct: str) -> set[str]:
    """Names declared directly in `struct <struct> { ... };` (data members
    and member functions), read from the header with comments stripped."""
    text = re.sub(r"//[^\n]*|/\*.*?\*/", "", header_text, flags=re.S)
    start = re.search(r"\bstruct\s+" + struct + r"\s*\{", text)
    if not start:
        return set()
    body, depth = [], 1
    for ch in text[start.end():]:
        depth += (ch == "{") - (ch == "}")
        if depth == 0:
            break
        if depth == 1 and ch != "}":
            body.append(ch)  # nested braces (bodies, initializers) drop out
    members = set()
    for decl in re.split(r"[;}]", "".join(body)):
        decl = re.sub(r"^\s*(public|private|protected)\s*:", "", decl).strip()
        if not decl or decl.startswith(("using ", "static_assert", "friend ")):
            continue
        head = decl.split("=", 1)[0]
        call = head.find("(")
        names = re.findall(r"\w+", head[:call] if call >= 0 else head.split("{", 1)[0])
        if names:
            members.add(names[-1])
    return members


def check_config_refs(files: list[Path]) -> list[str]:
    members = {
        struct: struct_members((REPO / header).read_text(encoding="utf-8"), struct)
        for struct, header in CONFIG_HEADERS.items()
    }
    problems = []
    for md in files:
        rel = md.relative_to(REPO)
        if len(rel.parts) == 1 and rel.name not in CONFIG_ROOT_DOCS:
            continue
        for struct, names in CONFIG_REF.findall(md.read_text(encoding="utf-8")):
            for name in names.split("/"):
                if name not in members[struct]:
                    problems.append(
                        f"{md.relative_to(REPO)}: {struct}::{name} is not a member "
                        f"of {struct} ({CONFIG_HEADERS[struct]})"
                    )
    return problems


def main() -> int:
    problems: list[str] = []
    files = markdown_files()
    for md in files:
        problems.extend(check_links(md))
    problems.extend(check_module_readmes())
    problems.extend(check_test_modules())
    problems.extend(check_config_refs(files))
    for problem in problems:
        print(problem)
    print(
        f"check_docs: {len(files)} markdown files scanned, "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
