"""The stand-in acceptance command (`scripts/standin_acceptance.py`)
writes a bundle that the citation-graph specs load, and selects exactly
the six criteria that skip without the citation bundle."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from oodgat.experiments import parse_spec, resolve_graph

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "standin_acceptance.py"


def test_standin_bundle_loads_with_the_citation_spec(tmp_path):
    spec = importlib.util.spec_from_file_location("standin_acceptance", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bundle = script.write_standin(tmp_path / "cora")
    text = (ROOT / "specs" / "cora-oodgat.spec").read_text(encoding="utf-8")
    path = tmp_path / "cora-oodgat.spec"
    path.write_text(text.replace("path = ../data/cora", f"path = {bundle}"), encoding="utf-8")
    parsed = parse_spec(path)
    graph = resolve_graph(parsed.dataset, None)
    assert (graph.num_nodes, graph.num_features) == (2708, 1433)
    assert parsed.model.num_classes == 4    # Cora's seven classes, three of them OOD


def test_standin_command_selects_criteria_4_to_9():
    listed = subprocess.run([sys.executable, str(SCRIPT), "--collect-only", "-q",
                             "-p", "no:cacheprovider"],
                            capture_output=True, text=True, timeout=120)
    assert listed.returncode == 0, listed.stdout + listed.stderr
    ids = [line for line in listed.stdout.splitlines() if "::" in line]
    assert [i.split("::")[1] for i in ids] == [
        "test_criterion_4_cora_reproduction", "test_criterion_5_detector_ordering",
        "test_criterion_6_smoothing_gap", "test_criterion_7_edge_ablation",
        "test_criterion_8_loss_ablation", "test_criterion_9_determinism"]
