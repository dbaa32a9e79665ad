"""Command-line interface.

Subcommands:
  run          integrate one scenario and write CSV/VTK/manifest outputs
  compare      run a scenario in both model modes and tabulate power density
  convergence  temporal / spatial order-verification studies
  mesh         build and dump the geometry, mesh, and quality report
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ConfigError, PRESETS, ScenarioConfig, parse_scenario
from .mesh import MESH_PRESETS, generate_layered_mesh, validate_mesh

log = logging.getLogger(__name__)


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    kw = {}
    if getattr(args, "model", None):
        kw["model"] = args.model
    if getattr(args, "dt", None) is not None:
        kw["dt"] = args.dt
    if getattr(args, "tend", None) is not None:
        kw["t_end"] = args.tend
    if getattr(args, "mesh", None):
        kw["mesh"] = MESH_PRESETS[args.mesh]()
    return cfg.replace(**kw) if kw else cfg


def _cmd_run(args) -> int:
    from .driver import run_scenario
    cfg = _apply_overrides(parse_scenario(args.scenario), args)
    result = run_scenario(cfg, out_dir=args.out)
    last = result.records[-1]
    print(f"completed {len(result.reports)} step(s); "
          f"V_out = {last.v_out_v:.4f} V, "
          f"SoC = ({last.soc_anode:.4f}, {last.soc_cathode:.4f}), "
          f"T = {last.temp_c:.3f} C")
    if args.out:
        print(f"outputs in {args.out}")
    return 0


def _cmd_compare(args) -> int:
    from .postprocess import compare_models, comparison_csv, comparison_table
    cfg = _apply_overrides(parse_scenario(args.scenario), args)
    rows, rel = compare_models(cfg, out_dir=args.out)
    table = comparison_table([(rows, rel)])
    print(table, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "comparison.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(comparison_csv([(rows, rel)]))
        print(f"written {path}")
    return 0


def _cmd_convergence(args) -> int:
    from .verification import spatial_order_study, temporal_order_study
    lines = []
    if args.case == "temporal":
        study = temporal_order_study()
        lines.append(study.summary())
        ok = study.observed_order >= 1.9
    else:
        studies = spatial_order_study()
        ok = True
        for p, study in studies.items():
            lines.append(study.summary())
            ok = ok and abs(study.observed_order - p) <= 0.15
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"convergence_{args.case}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"written {path}")
    if not ok:
        print("convergence order below expectation", file=sys.stderr)
        return 1
    return 0


def _cmd_mesh(args) -> int:
    from .geometry import build_interdigitated_domain, domain_svg
    from .postprocess import export_mesh_vtk
    if args.spec in MESH_PRESETS:
        cfg = ScenarioConfig(mesh=MESH_PRESETS[args.spec]())
    elif args.spec in PRESETS or os.path.isfile(args.spec):
        cfg = parse_scenario(args.spec)
    else:
        raise ConfigError(
            f"spec {args.spec!r} is neither a mesh preset "
            f"({', '.join(MESH_PRESETS)}), a scenario preset "
            f"({', '.join(PRESETS)}) nor a readable file")
    geom = build_interdigitated_domain(cfg.dims)
    mesh = generate_layered_mesh(geom, cfg.mesh)
    report = validate_mesh(mesh, geom)
    print(report.summary())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        export_mesh_vtk(mesh, os.path.join(args.out, "mesh.vtk"))
        with open(os.path.join(args.out, "quality_report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.summary() + "\n")
        with open(os.path.join(args.out, "domain.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(domain_svg(geom))
        print(f"written mesh.vtk, quality_report.txt, domain.svg in {args.out}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltacell",
        description="Coupled thermo-electro-chemo-mechanical simulation of "
                    "an interdigitated lithium-ion cell unit.")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log per-step progress")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_model=True):
        p.add_argument("--out", help="output directory")
        p.add_argument("--dt", type=float, help="time step override [s]")
        p.add_argument("--tend", type=float, help="end time override [s]")
        p.add_argument("--mesh", choices=tuple(MESH_PRESETS),
                       help="mesh resolution preset override")
        if with_model:
            p.add_argument("--model", choices=("full", "electrochemical"),
                           help="model mode override")

    p_run = sub.add_parser("run", help="integrate one scenario")
    p_run.add_argument("--scenario", required=True,
                       help=f"preset ({', '.join(PRESETS)}) or scenario file")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="full vs electrochemical power density")
    p_cmp.add_argument("--scenario", required=True)
    common(p_cmp, with_model=False)
    p_cmp.set_defaults(func=_cmd_compare)

    p_conv = sub.add_parser("convergence", help="order verification studies")
    p_conv.add_argument("--case", choices=("temporal", "spatial"),
                        required=True)
    p_conv.add_argument("--out", help="output directory")
    p_conv.set_defaults(func=_cmd_convergence)

    p_mesh = sub.add_parser("mesh", help="geometry / mesh dump")
    p_mesh.add_argument("--spec", required=True,
                        help="'coarse', 'production', or a scenario file")
    p_mesh.add_argument("--out", help="output directory")
    p_mesh.set_defaults(func=_cmd_mesh)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage()
        return 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface one-line cause, nonzero exit
        log.debug("unhandled failure", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
