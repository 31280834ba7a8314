import importlib.util
from pathlib import Path

from oracles import report_from_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_experiment.py"


def test_reports_load_with_report_from_json(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_desk_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path), "--epochs", "1"]) == 0
    paths = sorted(tmp_path.glob("report_*.json"))
    assert [p.name for p in paths] == [f"report_{m}.json" for m in sorted(script.METHODS)]
    for p in paths:
        report = report_from_json(p.read_text())
        assert p.name == f"report_{report.method}.json"
        assert report.total_experiments == 186  # 6 sources
