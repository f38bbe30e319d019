"""The README's two quick starts run as written."""

import json
import os
import re
import subprocess
import sys

import tssf

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start(title, language):
    """The first ``language`` code block under the README heading ``title``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def run(argv, cwd):
    # conftest puts src/ on PYTHONPATH, which the subprocess inherits
    result = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    return result


def test_library_quick_start_runs(tmp_path):
    run([sys.executable, "-c", quick_start("Quick start (library)", "python")], tmp_path)
    assert (tmp_path / "model.json").read_text().startswith('{\n "format": "pipeline/4",\n')


def test_model_file_table_lists_the_saved_keys(tmp_path):
    # the key table under "Model files" names exactly the keys
    # save_pipeline writes, in their order
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("**Model files**", 1)[1].split("\n\n**", 1)[0]
    rows = re.findall(r"^\| (\w+) +\|", section, re.MULTILINE)
    ts = tssf.synth_generate(tssf.SynthConfig(channels=4, trials_per_class=10, seed=1))
    spec = tssf.PipelineSpec("TSSF_Var_1_step", k=2, classifier=tssf.ClassifierConfig(reg=1.0))
    tssf.save_pipeline(tssf.make_pipeline(spec).fit(ts.data, ts.labels), tmp_path / "m.json")
    with open(tmp_path / "m.json", encoding="utf-8") as fh:
        assert rows[1:] == list(json.load(fh))  # rows[0] is the header


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    # `tssf` is the installed console script; the checkout's module stands in
    monkeypatch.setenv("PYTHON", sys.executable)
    script = 'set -e\ntssf() { "$PYTHON" -m tssf.cli "$@"; }\n'
    script += quick_start("Quick start (CLI)", "sh")
    run(["bash", "-c", script], tmp_path)
    for name in ("trials.eegt", "model.json", "report.csv", "patterns.csv", "bench.csv", "airm.json"):
        assert (tmp_path / name).exists(), name
