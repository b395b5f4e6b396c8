"""Text rendering of experiment results, in the shape the paper reports
them (rows per figure/table, time series downsampled for the terminal)."""

from __future__ import annotations


def _fmt(value, width=10, decimals=1):
    if isinstance(value, float):
        return f"{value:>{width}.{decimals}f}"
    return f"{value!s:>{width}}"


def render_table(rows: list[dict], columns: list[tuple], title: str = "") -> str:
    """``columns`` is a list of (key, header, decimals)."""
    lines = []
    if title:
        lines.append(title)
    header = " ".join(f"{h:>12}" for _, h, _ in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            " ".join(
                _fmt(row.get(key, ""), width=12, decimals=dec)
                for key, _, dec in columns
            )
        )
    return "\n".join(lines)


def downsample(series: list[tuple], n_points: int = 24) -> list[tuple]:
    """Average a (t, v) series into ``n_points`` coarse buckets."""
    if not series or len(series) <= n_points:
        return list(series)
    step = len(series) / n_points
    out = []
    i = 0.0
    while int(i) < len(series):
        chunk = series[int(i): int(i + step)] or series[int(i): int(i) + 1]
        t0 = chunk[0][0]
        out.append((t0, sum(v for _, v in chunk) / len(chunk)))
        i += step
    return out


def render_series(series: list[tuple], label: str, unit: str = "", width: int = 48) -> str:
    """A terminal sparkline-style rendering of a time series."""
    points = downsample(series, width // 2)
    if not points:
        return f"{label}: (no data)"
    peak = max(v for _, v in points) or 1.0
    bars = "".join("▁▂▃▄▅▆▇█"[min(7, int(8 * v / peak))] for _, v in points)
    return f"{label:<28} peak={peak:>9.1f}{unit}  {bars}"


def render_fig2(result: dict) -> str:
    lines = [
        "Figure 2 — repartitioning impact (TPC-C, random initial placement)",
        render_series(result["throughput"], "throughput (cmds/s)"),
        render_series(result["objects_exchanged"], "objects exchanged /s"),
        render_series(
            [(t, 100 * f) for t, f in result["multi_partition_fraction"]],
            "multi-partition (%)",
        ),
        f"plans applied at t = {['%.0fs' % t for t in result['plan_times']]}",
        f"completed={result['completed']} failed={result['failed']}",
    ]
    return "\n".join(lines)


def render_fig3(result: dict) -> str:
    return render_table(
        result["rows"],
        [
            ("partitions", "partitions", 0),
            ("dynastar_tput", "DynaStar", 1),
            ("ssmr_star_tput", "S-SMR*", 1),
        ],
        title="Figure 3 — TPC-C peak throughput (cmds/s) vs partitions",
    )


def render_fig4(result: dict) -> str:
    return render_table(
        result["rows"],
        [
            ("mix", "mix", 0),
            ("partitions", "parts", 0),
            ("dynastar_tput", "DS tput", 1),
            ("ssmr_star_tput", "S* tput", 1),
            ("dynastar_lat_mean_ms", "DS lat ms", 2),
            ("ssmr_star_lat_mean_ms", "S* lat ms", 2),
            ("dynastar_lat_p95_ms", "DS p95", 2),
            ("ssmr_star_lat_p95_ms", "S* p95", 2),
        ],
        title="Figure 4 — social network throughput / latency",
    )


def render_chirper_lanes(result: dict) -> str:
    table = render_table(
        result["rows"],
        [
            ("mix", "mix", 0),
            ("lanes", "lanes", 0),
            ("tput", "cmds/s", 1),
            ("speedup", "vs 1 lane", 2),
            ("lat_mean_ms", "lat ms", 2),
            ("lat_p95_ms", "p95 ms", 2),
            ("multi_frac", "multi", 2),
        ],
        title=(
            f"Execution lanes on Chirper — 2 partitions, {result['n_clients']} "
            f"clients, {result['duration']:.0f} virtual s"
        ),
    )
    problems = [
        f"  {row['mix']} lanes={row['lanes']}: {problem}"
        for row in result["rows"]
        for problem in row["problems"]
    ]
    return "\n".join([table, *problems])


def render_fig5(result: dict) -> str:
    lines = ["Figure 5 — latency CDFs (ms at p50 / p80 / p99)"]
    for (mode, k), cdf in sorted(result["cdfs"].items(), key=repr):
        def at(frac):
            for value, cum in cdf:
                if cum >= frac:
                    return value * 1e3
            return cdf[-1][0] * 1e3 if cdf else float("nan")

        lines.append(
            f"  {mode:<10} k={k}:  p50={at(0.5):7.2f}  p80={at(0.8):7.2f}  p99={at(0.99):7.2f}"
        )
    return "\n".join(lines)


def render_fig6(result: dict) -> str:
    lines = [
        f"Figure 6 — dynamic workload (celebrity at t={result['event_time']:.0f}s)"
    ]
    for mode in ("dynastar", "ssmr_star"):
        data = result[mode]
        lines.append(f"  [{mode}]")
        lines.append("  " + render_series(data["throughput"], "throughput (cmds/s)"))
        lines.append(
            "  "
            + render_series(
                [(t, 100 * f) for t, f in data["multi_fraction"]],
                "multi-partition (%)",
            )
        )
        if data["plan_times"]:
            lines.append(
                f"  plans at t = {['%.0fs' % t for t in data['plan_times']]}"
            )
    return "\n".join(lines)


def render_table1(result: dict) -> str:
    return render_table(
        result["rows"],
        [
            ("partition", "partition", 0),
            ("tput", "tput", 1),
            ("multipart_per_sec", "m-part/s", 1),
            ("objects_per_sec", "objects/s", 1),
            ("owned_nodes", "nodes", 0),
        ],
        title="Table 1 — per-partition load at peak throughput",
    )


def render_fig7(result: dict) -> str:
    return render_table(
        result["rows"],
        [
            ("vertices", "vertices", 0),
            ("edges", "edges", 0),
            ("seconds", "seconds", 2),
            ("peak_mb", "peak MB", 1),
            ("levels", "levels", 0),
        ],
        title=f"Figure 7 — partitioner scaling (k={result['k']})",
    )


def render_fig8(result: dict) -> str:
    return "\n".join(
        [
            "Figure 8 — oracle query load over time",
            render_series(result["oracle_queries"], "oracle queries/s"),
            f"repartition requested at t={result['repartition_time']:.0f}s, "
            f"plans applied at {['%.0fs' % t for t in result['plan_times']]}",
            f"total queries: {result['total_queries']}",
        ]
    )
