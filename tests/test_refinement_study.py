"""scripts/refinement_study.py at its defaults reproduces its recorded study."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "refinement_study.py"


def test_default_study_reproduces_its_order(capsys):
    spec = importlib.util.spec_from_file_location("refinement_study", SCRIPT)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    assert study.main([]) == 0
    out = capsys.readouterr().out
    for rms in ("rms 3.5749e-03", "rms 2.2666e-03", "rms 1.5330e-03"):
        assert rms in out
    assert "observed order 0.611" in out
