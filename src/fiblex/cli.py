"""Command line interface for scenario files.

Exit codes: 0 pass, 1 assertion failure, 2 structural or file error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .errors import FiblexError, ScenarioError
from .jsonio import canonical_dumps
from .scenario import (
    EXIT_STRUCTURAL,
    explain_report,
    export_dot,
    load_scenario,
    run_scenario,
    validate_scenario,
)


def _load(path: str):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}")
    return load_scenario(doc)


class _Commands(click.Group):
    """Every command exits ``EXIT_STRUCTURAL`` on a ``FiblexError``, with
    ``error: …`` on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FiblexError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_STRUCTURAL)


@click.group(cls=_Commands)
def main():
    """Run and inspect vocabulary acquisition scenarios."""


@main.command()
@click.argument("scenario", type=click.Path(exists=True))
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the canonical JSON report to this path.")
def run(scenario, report_path):
    """Execute a scenario's events and assertions."""
    code, report = run_scenario(_load(scenario))
    text = canonical_dumps(report)
    if report_path:
        Path(report_path).write_text(text)
    else:
        click.echo(text, nl=False)
    if report.get("first_failure"):
        click.echo(f"first failure: {report['first_failure']}", err=True)
    sys.exit(code)


@main.command()
@click.argument("scenario", type=click.Path(exists=True))
def validate(scenario):
    """Check a scenario's declarations without running events."""
    report = validate_scenario(_load(scenario))
    click.echo(canonical_dumps(report), nl=False)
    sys.exit(0 if report["status"] == "ok" else EXIT_STRUCTURAL)


@main.command("export-dot")
@click.argument("scenario", type=click.Path(exists=True))
@click.option("--speaker", required=True, help="Speaker whose category to render.")
@click.option("--which", type=click.Choice(["language", "total"]), default="language")
@click.option("--stage", type=int, default=None,
              help="Render after this many events (default: all).")
@click.option("--out", type=click.Path(), default=None, help="Write DOT here instead of stdout.")
def export_dot_cmd(scenario, speaker, which, stage, out):
    """Render a speaker's language or total category as DOT."""
    text = export_dot(_load(scenario), speaker, which=which, stage=stage)
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("scenario", type=click.Path(exists=True))
@click.option("--speaker", required=True)
@click.option("--explanation", required=True)
def explain(scenario, speaker, explanation):
    """Validate a declared explanation against a declared speaker."""
    report = explain_report(_load(scenario), speaker, explanation)
    click.echo(canonical_dumps(report), nl=False)


if __name__ == "__main__":
    main()
