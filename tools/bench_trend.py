#!/usr/bin/env python3
"""Aggregate the repo's BENCH_*.json artifacts into one trajectory table.

Each perf PR lands a bench binary that drops a BENCH_<name>.json next to
the build tree (hop, remote, fanin, lanes, obs, ...). This reads every
BENCH_*.json under the given directory (default: ./build, falling back to
the current directory) and prints one row per benchmark with its headline
numbers, so the performance trajectory across PRs is visible in one
place without opening five differently-shaped JSON files.

Missing, empty, or corrupt files never abort the run: absent files are
reported as an informational note (exit 0, so CI steps that run before
any bench has executed don't fail), and unreadable files get a row
flagging the problem while every other row still prints.

Stdlib only; no dependencies.

Usage:
    tools/bench_trend.py [--format text|markdown] [build-dir ...]
"""

import glob
import json
import os
import sys


def us(ns):
    """ns -> microseconds string, or '-' when absent."""
    if ns is None:
        return "-"
    return "%.1f" % (ns / 1000.0)


def headline(doc):
    """(p50_us, p99_us, detail) headline for one bench document.

    Every bench names its own headline comparison; anything unrecognized
    still gets a row from whatever common fields it carries.
    """
    name = doc.get("benchmark", "?")
    if name == "hop_microbench":
        s = doc.get("single_lock", {})
        return (
            us(s.get("median_ns")),
            us(s.get("p99_ns")),
            "locks/hop %.3f" % doc.get("locks_per_uncontended_hop", -1),
        )
    if name == "remote_roundtrip":
        shm = doc.get("shm", {})
        if shm.get("upgraded"):
            # Co-located rung: headline the shared-memory wire against the
            # same-run TCP control, plus the failover drill outcome.
            s = shm.get("shm", {})
            fo = shm.get("failover", {})
            return (
                us(s.get("median_ns")),
                us(s.get("p99_ns")),
                "shm rung %.1fx vs same-run tcp, allocs/msg %.2f, "
                "futex/rt %.3f, failover missing %d dup %d resent %d"
                % (
                    shm.get("paired_p50_speedup", -1),
                    shm.get("allocs_per_message", -1),
                    shm.get("futex_per_roundtrip", -1),
                    fo.get("missing", -1),
                    fo.get("duplicates", -1),
                    fo.get("resent_frames", -1),
                ),
            )
        sizes = doc.get("sizes", [])
        fast = sizes[0].get("fast", {}) if sizes else {}
        detail = "allocs/msg %.2f" % doc.get(
            "allocs_per_message_steady_state", -1
        )
        if "shm" in doc:
            detail += ", shm upgrade FAILED"
        return (us(fast.get("median_ns")), us(fast.get("p99_ns")), detail)
    if name == "fanin_roundtrip":
        gated = doc.get("gated_interleaved", {})
        return (
            us(gated.get("reactor64_p50_ns")),
            us(gated.get("reactor64_p99_ns")),
            "reactor@64 on %s threads, allocs/msg %.2f"
            % (
                doc.get("reactor_threads_at_64", "?"),
                doc.get("allocs_per_message_steady_state", -1),
            ),
        )
    if name == "lane_interference":
        legs = {leg.get("leg"): leg for leg in doc.get("legs", [])}
        con = legs.get("two_lane_bulk", {})
        sw_unc = legs.get("single_wire", {})
        sw_con = legs.get("single_wire_bulk", {})
        inversion = "-"
        if sw_unc.get("p50_ns") and sw_con.get("p50_ns"):
            inversion = "%.0fx" % (sw_con["p50_ns"] / sw_unc["p50_ns"])
        return (
            us(con.get("p50_ns")),
            us(con.get("p99_ns")),
            "urgent under bulk; single-wire inversion %s, allocs/msg %.2f"
            % (inversion, doc.get("allocs_per_message_steady_state", -1)),
        )
    if name == "obs_overhead":
        sizes = doc.get("sizes", [])
        on = sizes[0].get("on", {}) if sizes else {}
        stitch = doc.get("trace_stitch", {})
        return (
            us(on.get("median_ns")),
            us(on.get("p99_ns")),
            "plane-on overhead %+.1f%%, allocs/msg %.2f, stitch %s"
            % (
                doc.get("overhead_p50_pct", 0),
                doc.get("allocs_per_message_steady_state", -1),
                "ok" if stitch.get("stitched") else "FAIL",
            ),
        )
    if name == "recompose_churn":
        churn = doc.get("churn", {})
        pause = doc.get("pause", {})
        return (
            us(churn.get("p50_ns")),
            us(churn.get("p99_ns")),
            "under churn; p50 %.2fx baseline, %d repolicies, "
            "pause p99 %s us, lost %d, dropped +%d"
            % (
                doc.get("p50_ratio", -1),
                doc.get("repolicies", 0),
                us(pause.get("p99_ns")),
                doc.get("lost", -1),
                doc.get("frames_dropped_growth", -1),
            ),
        )
    if name == "metrics_snapshot":
        counters = doc.get("counters", {})
        gauges = doc.get("gauges", {})
        hists = doc.get("histograms", {})
        sources = doc.get("sources", {})
        return (
            "-",
            "-",
            "%d counter(s), %d gauge(s), %d histogram(s), %d source sample(s)"
            % (len(counters), len(gauges), len(hists), len(sources)),
        )
    return ("-", "-", "(no headline extractor)")


def fanin_backend_rows(base, doc):
    """Backend-comparison sub-rows for fanin_roundtrip (PR-10)."""
    rows = []
    notes = []
    compare = doc.get("backend_compare")
    if compare is None:
        notes.append(
            "note: %s has no epoll-vs-uring comparison (artifact predates "
            "the io_uring backend; re-run fanin_bench)" % base
        )
        return rows, notes
    if "skipped" in compare:
        notes.append(
            "note: %s backend comparison skipped: %s"
            % (base, compare["skipped"])
        )
        return rows, notes
    for backend in ("epoll", "uring"):
        leg = compare.get(backend, {})
        rows.append(
            (
                base,
                "  %s@%s" % (backend, compare.get("wires", "?")),
                us(leg.get("p50_ns")),
                us(leg.get("p99_ns")),
                "loop syscalls/frame %.4f, server sendmsg/frame %.4f, "
                "allocs/msg %.2f"
                % (
                    leg.get("loop_syscalls_per_frame", -1),
                    leg.get("server_send_syscalls_per_frame", -1),
                    leg.get("allocs_per_message", -1),
                ),
            )
        )
    return rows, notes


def lane_backend_rows(base, doc):
    """Backend-comparison sub-rows for lane_interference (PR-10)."""
    rows = []
    notes = []
    backends = doc.get("backends")
    if backends is None:
        notes.append(
            "note: %s has no reactor-served-lanes comparison (artifact "
            "predates the io_uring backend; re-run lane_bench)" % base
        )
        return rows, notes
    if "skipped" in backends:
        notes.append(
            "note: %s backend comparison skipped: %s"
            % (base, backends["skipped"])
        )
        return rows, notes
    for backend in ("epoll", "uring"):
        leg = backends.get(backend, {})
        rows.append(
            (
                base,
                "  %s lanes" % backend,
                us(leg.get("contended_p50_ns")),
                us(leg.get("contended_p99_ns")),
                "urgent under bulk (clean p99 %s us), loop syscalls/frame "
                "%.4f"
                % (
                    us(leg.get("uncontended_p99_ns")),
                    leg.get("loop_syscalls_per_frame", -1),
                ),
            )
        )
    return rows, notes


def extra_rows(base, doc):
    """(rows, notes) beyond the headline for benches with sub-rungs.

    remote_roundtrip's co-located run carries a zero-copy payload sweep and
    a 2-band interference rung (older remote artifacts also carry the
    retired legacy-wire and copy-out comparisons, noted but not shown); fanin_roundtrip and lane_interference carry
    an epoll-vs-uring backend comparison. Each gets its own row so the
    trajectory of both is visible without opening the JSON. Older artifacts
    that predate those fields get a note, never an error — the trend table
    must keep rendering across a bench-format transition.
    """
    rows = []
    notes = []
    if doc.get("benchmark") == "fanin_roundtrip":
        return fanin_backend_rows(base, doc)
    if doc.get("benchmark") == "lane_interference":
        return lane_backend_rows(base, doc)
    if doc.get("benchmark") != "remote_roundtrip":
        return rows, notes
    if "improvement_p50_32B_pct" in doc:
        notes.append(
            "note: %s carries the retired legacy-wire comparison (p50 vs "
            "legacy %+.1f%%); the bench no longer runs that path"
            % (base, doc["improvement_p50_32B_pct"])
        )
    shm = doc.get("shm", {})
    if not shm.get("upgraded"):
        return rows, notes
    sweep = shm.get("sweep")
    if sweep:
        for entry in sweep:
            zc = entry.get("zero_copy", {})
            rows.append(
                (
                    base,
                    "  sweep@%sB" % entry.get("payload_bytes", "?"),
                    us(zc.get("median_ns")),
                    us(zc.get("p99_ns")),
                    "zero-copy rx",
                )
            )
        if any("copying" in entry for entry in sweep):
            notes.append(
                "note: %s sweep carries the retired copy-out comparison; "
                "only zero-copy rows are shown" % base
            )
    else:
        notes.append(
            "note: %s has no zero-copy payload sweep (artifact predates "
            "the banded-shm bench; re-run remote_roundtrip)" % base
        )
    two_band = shm.get("two_band")
    if two_band:
        con = two_band.get("contended", {})
        rows.append(
            (
                base,
                "  2-band shm",
                us(con.get("median_ns")),
                us(con.get("p99_ns")),
                "urgent under bulk; p99 %.2fx uncontended over %d bulk "
                "frames"
                % (
                    two_band.get("urgent_p99_ratio", -1),
                    two_band.get("bulk_frames", -1),
                ),
            )
        )
    else:
        notes.append(
            "note: %s has no 2-band shm rung (artifact predates the "
            "banded-shm bench; re-run remote_roundtrip)" % base
        )
    if sweep and "rx_copies" in shm and shm.get("rx_copies") != 0:
        notes.append(
            "note: %s shm steady state copied %s frames out of the "
            "segment (zero-copy regression?)" % (base, shm.get("rx_copies"))
        )
    return rows, notes


def render_text(rows):
    widths = [
        max(len(r[i]) for r in rows + [HEADER]) for i in range(len(HEADER))
    ]
    for row in [HEADER] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def render_markdown(rows):
    """GitHub-flavored pipe table (for CI job summaries)."""
    print("| " + " | ".join(HEADER) + " |")
    print("|" + "|".join(" --- " for _ in HEADER) + "|")
    for row in rows:
        print("| " + " | ".join(c.replace("|", "\\|") for c in row) + " |")


def main(argv):
    fmt = "text"
    dirs = []
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--format":
            if not args or args[0] not in ("text", "markdown"):
                print("--format needs 'text' or 'markdown'", file=sys.stderr)
                return 2
            fmt = args.pop(0)
        elif a.startswith("--format="):
            fmt = a.split("=", 1)[1]
            if fmt not in ("text", "markdown"):
                print("--format needs 'text' or 'markdown'", file=sys.stderr)
                return 2
        elif a in ("-h", "--help"):
            print(__doc__.strip())
            return 0
        else:
            dirs.append(a)
    if not dirs:
        dirs = ["build" if os.path.isdir("build") else "."]
    paths = []
    for d in dirs:
        paths.extend(sorted(glob.glob(os.path.join(d, "BENCH_*.json"))))
    if not paths:
        # Not an error: the trend table is simply empty until a bench runs.
        print(
            "no BENCH_*.json found under: %s (run a bench target first, "
            "e.g. `cmake --build build --target obs_bench`)" % ", ".join(dirs)
        )
        return 0

    rows = []
    # One row per BENCHMARK, not per file: repeated runs of the same bench
    # (a smoke artifact next to a full one, or the same bench found under
    # several build dirs) used to each get a row, silently inflating the
    # table. Keep only the newest file (by mtime) per benchmark name and
    # say which stale artifacts were skipped. Files whose bench can't be
    # identified (unreadable/corrupt) always keep their own diagnostic row.
    newest = {}  # benchmark name -> (mtime, path, doc)
    skipped = []  # (base, benchmark, kept_base)
    for path in paths:
        base = os.path.basename(path)
        try:
            with open(path) as f:
                text = f.read()
            mtime = os.path.getmtime(path)
        except OSError as e:
            rows.append((base, "?", "-", "-", "unreadable: %s" % e))
            continue
        if not text.strip():
            rows.append((base, "?", "-", "-", "empty file (bench aborted?)"))
            continue
        try:
            doc = json.loads(text)
        except ValueError as e:
            rows.append((base, "?", "-", "-", "corrupt JSON: %s" % e))
            continue
        if not isinstance(doc, dict):
            rows.append((base, "?", "-", "-", "not a JSON object"))
            continue
        # Unnamed docs dedupe per-file (the name is all we have to group on).
        name = doc.get("benchmark") or base
        prev = newest.get(name)
        if prev is None:
            newest[name] = (mtime, path, doc)
        elif mtime > prev[0]:
            skipped.append((os.path.basename(prev[1]), name, base))
            newest[name] = (mtime, path, doc)
        else:
            skipped.append((base, name, os.path.basename(prev[1])))

    notes = []
    for _, (mtime, path, doc) in sorted(newest.items()):
        base = os.path.basename(path)
        p50, p99, detail = headline(doc)
        rows.append((base, doc.get("benchmark", "?"), p50, p99, detail))
        sub_rows, sub_notes = extra_rows(base, doc)
        rows.extend(sub_rows)
        notes.extend(sub_notes)

    if fmt == "markdown":
        render_markdown(rows)
    else:
        render_text(rows)
    for note in notes:
        print(note)
    for base, name, kept in sorted(skipped):
        print("note: skipped %s (older run of %s; kept %s)" % (base, name, kept))
    return 0


HEADER = ("file", "benchmark", "p50(us)", "p99(us)", "headline")

if __name__ == "__main__":
    sys.exit(main(sys.argv))
