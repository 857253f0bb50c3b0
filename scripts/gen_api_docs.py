#!/usr/bin/env python
"""Generate docs/API.md from the library's docstrings.

Walks every public package, lists each module's ``__all__`` exports with
their signatures and first docstring paragraph.  Run from the repository
root::

    python scripts/gen_api_docs.py [OUT]

``OUT`` defaults to docs/API.md.  That output is committed so the
reference stays browsable without tooling; re-run after changing any
public API.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import re
import sys
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.auction",
    "repro.mechanisms",
    "repro.coverage",
    "repro.privacy",
    "repro.privacy.budget",
    "repro.aggregation",
    "repro.mcs",
    "repro.analysis",
    "repro.workloads",
    "repro.experiments",
    "repro.campaign",
    "repro.engine",
    "repro.tolerances",
    "repro.context",
    "repro.bench",
    "repro.obs",
    "repro.resilience",
    "repro.io",
    "repro.utils",
    "repro.exceptions",
]


def clean_signature(obj) -> str:
    """Signature string with memory addresses scrubbed (reproducible output)."""
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return re.sub(r"<function (\w+) at 0x[0-9a-f]+>", r"\1", signature)


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paragraph: list[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


def describe(name: str, obj) -> list[str]:
    lines: list[str] = []
    if inspect.isclass(obj):
        lines.append(f"### class `{name}`")
        lines.append("")
        lines.append(first_paragraph(obj.__doc__))
        lines.append("")
        methods = [
            (m_name, member)
            for m_name, member in inspect.getmembers(obj, inspect.isfunction)
            if not m_name.startswith("_") and member.__qualname__.startswith(obj.__name__)
        ]
        for m_name, member in methods:
            signature = clean_signature(member)
            lines.append(f"- `{m_name}{signature}` — {first_paragraph(member.__doc__)}")
        if methods:
            lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{clean_signature(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj.__doc__))
        lines.append("")
    else:
        lines.append(f"### `{name}`")
        lines.append("")
        type_name = type(obj).__name__
        lines.append(f"Constant of type `{type_name}`.")
        lines.append("")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate the API reference.")
    parser.add_argument(
        "out",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "docs" / "API.md",
        help="output path (default: docs/API.md)",
    )
    target = parser.parse_args(argv).out
    out: list[str] = [
        "# API reference",
        "",
        "_Generated by `python scripts/gen_api_docs.py` — do not edit by hand._",
        "",
    ]
    for package in PACKAGES:
        module = importlib.import_module(package)
        out.append(f"## `{package}`")
        out.append("")
        out.append(first_paragraph(module.__doc__))
        out.append("")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.ismodule(obj):
                continue
            out.extend(describe(name, obj))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {target} ({len(out)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
