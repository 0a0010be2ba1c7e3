import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# Paths probed for the fetched kidney-disease table (see README / fetch-data);
# a relative DINET_CKD_ARFF is read from the directory pytest starts in.
CKD_CANDIDATES = (
    os.environ.get("DINET_CKD_ARFF") and os.path.abspath(os.environ["DINET_CKD_ARFF"]),
    REPO_ROOT / "data" / "ckd" / "chronic_kidney_disease_full.arff",
    REPO_ROOT / "data" / "ckd" / "chronic_kidney_disease.arff",
)


def ckd_path():
    for cand in CKD_CANDIDATES:
        if cand and Path(cand).exists():
            return Path(cand)
    return None


@pytest.fixture(scope="session")
def ckd_arff():
    path = ckd_path()
    if path is None:
        pytest.skip("kidney-disease dataset not fetched (run: dinet fetch-data)")
    return path


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Run every test in its own directory, so a default output path such as
    ``out/metrics.json`` never lands in the checkout."""
    monkeypatch.chdir(tmp_path)
