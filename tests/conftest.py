import contextlib
import io
import pathlib
from typing import NamedTuple

import pytest

from hypergrowth.cli import main
from hypergrowth.ingest import aggregate, parse_wide_csv, preset_catalog

DATA_DIR = pathlib.Path(__file__).parent / "data"
EUROPE_CSV = DATA_DIR / "europe_gdp_wide.csv"


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr together, in the order written
    exception: Exception | None


def invoke(args, catch_exceptions: bool = True) -> CliResult:
    """Run ``hypergrowth.cli.main(args)`` in process and capture what it prints.

    ``SystemExit`` gives the exit code. Any other exception gives exit 1 with
    ``.exception`` set, or propagates when ``catch_exceptions`` is False.
    """
    buf = io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
        except Exception as exc:
            if not catch_exceptions:
                raise
            code, exception = 1, exc
    return CliResult(code, buf.getvalue(), exception)


@pytest.fixture(scope="session")
def runner():
    """``invoke``; it holds no state, so one instance serves every test."""
    return invoke


@pytest.fixture(scope="session")
def europe_csv_path() -> pathlib.Path:
    return EUROPE_CSV


@pytest.fixture(scope="session")
def europe_dataset():
    return parse_wide_csv(EUROPE_CSV.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def regional_series(europe_dataset):
    catalog = {p.name: p for p in preset_catalog()}
    return {
        name: aggregate(europe_dataset, catalog[name]) for name in ("W12", "W30", "EE")
    }
