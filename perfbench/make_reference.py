"""Regenerate perfbench/reference.json: the outcome of every scenario run of
every workload, for each initial state of charge a seed can pick.

    python3 perfbench/make_reference.py

Run from the repository root on a commit whose results are trusted.  A
completed run stores its final V_out, SoCs, temperature and u_max; a failed
run stores the exception type and the step it failed in.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, THREAD_VARS


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import gate
    from perfbench.probe import RunProbe
    from perfbench.workloads import SOC_CHOICES, WORKLOADS

    work_dir = os.path.join(ROOT, ".perfbench", "work", "reference")
    os.makedirs(work_dir, exist_ok=True)
    out = {"rel_tol": gate.REL_TOL, "workloads": {}}
    probe = RunProbe()
    probe.install()
    try:
        for name, workload in WORKLOADS.items():
            per_soc = out["workloads"][name] = {}
            for soc in SOC_CHOICES:
                probe.clear()
                workload.run_once(workload.configs(soc), work_dir)
                entries = per_soc[f"{soc:.2f}"] = {}
                for rec in probe.runs:
                    if rec.error is not None:
                        entries[rec.key] = {
                            "error": rec.error,
                            "failed_in_step": rec.entered_step,
                            "last_completed_step": rec.last_step}
                    else:
                        entries[rec.key] = {
                            "steps": rec.summary["steps"],
                            "final": {k: rec.summary[k]
                                      for k in gate.FINAL_KEYS}}
                print(name, f"{soc:.2f}", json.dumps(entries), flush=True)
    finally:
        probe.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    path = os.path.join(ROOT, "perfbench", "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
