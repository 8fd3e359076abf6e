"""Command-line front end.

Verbs:
  build     parse a config, assemble the model, print its structure
  bench     time inference stage by stage and report fps
  sweep     benchmark one model across several NMS parameter triples
  eval      score a detections file against a ground-truth file
  report    render a saved benchmark report (JSON) as text or csv
  fixtures  write the 50 desk-size experiment configs

Exit codes: 0 success, 2 missing or unreadable path (a directory where a
file belongs, or the reverse) or bad usage, 3 invalid value (config errors
included), 4 unexpected internal failure.
"""

import argparse
import sys

from . import config as cfg
from . import evaluate as ev
from . import postprocess as pp
from . import profiler as prof
from .head import assemble_model, build_model
from .postprocess import NmsParams
from .weights import load_wts, save_wts


def _parse_triples(text):
    """'400,200,0.1;1000,500,0.01' -> list of NmsParams."""
    triples = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = [p.strip() for p in part.split(",")]
        if len(fields) != 3:
            raise ValueError(
                f"bad NMS triple {part!r}: expected max_input,max_output,conf_thresh"
            )
        try:
            triples.append(NmsParams(int(fields[0]), int(fields[1]), float(fields[2])))
        except ValueError as e:
            raise ValueError(f"bad NMS triple {part!r}: {e}") from None
    if not triples:
        raise ValueError("no NMS triples given")
    return triples


def _load_spec(args):
    return cfg.parse_file(args.config, strict=args.strict)


def _load_model(args):
    """Assemble and bind: fresh seeded weights, or a .wts file when given."""
    spec = _load_spec(args)
    if getattr(args, "weights_in", None):
        model = assemble_model(spec)
        bundle, stored_name = load_wts(args.weights_in)
        if stored_name != spec.name:
            raise ValueError(
                f"weights file is for model {stored_name!r}, config names {spec.name!r}"
            )
        model.bind(bundle)
    else:
        model = build_model(spec)
    return spec, model


def _cmd_build(args):
    spec = _load_spec(args)
    model = build_model(spec) if args.weights_out else assemble_model(spec)
    wm = spec.width_multiplier
    print(f"model: {spec.name}")
    print(f"backbone: {spec.backbone} (head depth {spec.head_depth}, width multiplier {wm})")
    print(f"input: {spec.input_size}x{spec.input_size}")
    print(f"anchors: {len(model.anchors)}")
    print(f"parameters: {model.param_count()} trainable")
    for name, c, s in model.backbone.pyramid():
        side = spec.input_size // s
        print(f"  level {name}: stride {s}, {side}x{side}, {c} ch")
    if args.verbose:
        for line in model.notes:
            print(f"note: {line}")
    if args.weights_out:
        digest = save_wts(args.weights_out, model.weights, spec.name)
        print(f"weights: wrote {args.weights_out} (digest {digest:#018x})")
    return 0


def _cmd_bench(args):
    spec, model = _load_model(args)
    report = prof.benchmark(
        model, runs=args.runs, warmup=args.warmup, nms_params=spec.nms, seed=args.seed
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(report.to_json() + "\n")
    sys.stdout.write(prof.render_report(report, fmt=args.format, strip_timings=args.strip_timings))
    return 0


def _cmd_sweep(args):
    spec, model = _load_model(args)
    triples = _parse_triples(args.nms)
    rows = prof.compare_sweep(model, triples, runs=args.runs, warmup=args.warmup, seed=args.seed)
    sys.stdout.write(prof.render_sweep(rows, fmt=args.format, model=spec.name))
    return 0


def _cmd_eval(args):
    dets = pp.read_detections(args.detections)
    gts = ev.read_ground_truth(args.ground_truth)
    result = ev.coco_map(dets, gts)
    table = sorted(result.per_threshold.items())
    if args.format == "csv":
        print("threshold,ap")
        for t, ap in table:
            print(f"{t:.2f},{ap!r}")
        print(f"mean,{result.mean!r}")
    else:
        for t, ap in table:
            print(f"AP@{t:.2f}: {ap:.4f}")
        print(f"mAP@[0.50:0.95]: {result.mean:.4f}")
    return 0


def _cmd_report(args):
    with pp.open_text(args.report) as f:
        report = prof.ProfileReport.from_json(f.read())
    sys.stdout.write(prof.render_report(report, fmt=args.format, strip_timings=args.strip_timings))
    return 0


def _cmd_fixtures(args):
    paths = cfg.write_fixtures(args.out_dir)
    print(f"wrote {len(paths)} configs to {args.out_dir}")
    return 0


def _add_config_arg(p):
    p.add_argument("config", help="model config file (key = value text)")
    p.add_argument("--strict", action="store_true",
                   help="reject unknown config keys instead of warning")


def _add_bench_args(p):
    p.add_argument("--runs", type=int, default=210, help="total inference runs (default 210)")
    p.add_argument("--warmup", type=int, default=10,
                   help="leading runs discarded from statistics (default 10)")
    p.add_argument("--seed", type=int, default=0, help="seed for the synthetic input image")
    p.add_argument("--weights", dest="weights_in", metavar="WTS",
                   help="bind weights from a .wts file instead of seeded init")
    p.add_argument("--format", choices=("text", "csv"), default="text")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="refinedet-edge",
        description="Two-step detector assembly, stage-wise profiling, and NMS sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="assemble a model and print its structure")
    _add_config_arg(p)
    p.add_argument("--weights", dest="weights_out", metavar="WTS",
                   help="also initialize weights (seeded) and save them here")
    p.add_argument("-v", "--verbose", action="store_true", help="print stage tables and notes")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("bench", help="profile inference stage by stage")
    _add_config_arg(p)
    _add_bench_args(p)
    p.add_argument("--json", metavar="PATH", help="also save the full report as JSON")
    p.add_argument("--strip-timings", action="store_true",
                   help="blank timing-derived numbers for stable diffs")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="benchmark across NMS parameter triples")
    _add_config_arg(p)
    _add_bench_args(p)
    p.add_argument("--nms", required=True,
                   help="semicolon-separated triples, e.g. '400,200,0.1;1000,500,0.01'")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("detections", help="detections csv (image,class,x,y,w,h,score)")
    p.add_argument("ground_truth", help="ground-truth csv (image,class,x,y,w,h[,ignore])")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="render a saved benchmark report")
    p.add_argument("report", help="report JSON written by bench --json")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--strip-timings", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fixtures", help="write the 50 desk-size experiment configs")
    p.add_argument("out_dir", help="directory for exp01.cfg .. exp50.cfg")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        name = e.filename if e.filename else e
        print(f"error: file not found: {name}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e.filename}: {e.strerror}" if e.filename else f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
