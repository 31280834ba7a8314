import importlib.util
import re
from pathlib import Path

from oracles import report_from_json

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_desk_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_desk_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def mrr_columns(text: str) -> dict[str, list[str]]:
    """The first per-count MRR table in text, column by column, as printed."""
    lines = text[re.search(r"^labeled\s", text, re.M).start():].splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("overall"))
    header = lines[0].split()[1:]
    rows = [line.split()[1:] for line in lines[1 : end + 1]]
    return {method: [row[k] for row in rows] for k, method in enumerate(header)}


def test_hard_baseline_columns_match_the_readme(capsys):
    assert load_script().main(["--hard"]) == 0
    printed = mrr_columns(capsys.readouterr().out)
    readme = mrr_columns((ROOT / "README.md").read_text(encoding="utf-8"))
    assert printed == readme


def test_reports_load_with_report_from_json(tmp_path, capsys):
    script = load_script()
    assert script.main(["--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("report_*.json"))
    assert [p.name for p in paths] == [f"report_{m}.json" for m in sorted(script.METHODS)]
    for p in paths:
        report = report_from_json(p.read_text())
        assert p.name == f"report_{report.method}.json"
        assert report.total_experiments == 186  # 6 sources
