"""Figure 4: social-network throughput & latency vs partitions.

Paper shape: with timeline-only commands both systems scale almost
linearly and perform similarly (no moves needed, no synchronization).
With the 85/15 mix, throughput still scales but multi-partition posts
temper it; DynaStar rivals S-SMR* despite starting with no workload
knowledge.  DS-SMR, the naive-migration baseline (§7), comes last on the
mix: its moves are for good, so the partition scheduler lets nothing
pass one (DESIGN.md §10, safety point 2) and the hot users ping-pong.
"""

from repro.experiments import figures, reporting

from benchmarks.conftest import emit, run_once


def test_fig4_social_throughput(benchmark):
    result = run_once(
        benchmark,
        figures.fig4_social_throughput,
        partition_counts=(2, 4),
        mixes=("timeline", "mix"),
        n_users=800,
        duration=20.0,
        clients_per_partition=5,
        seed=1,
    )
    emit(reporting.render_fig4(result))
    rows = {(r["mix"], r["partitions"]): r for r in result["rows"]}

    # Timeline-only: both scale with partitions and are comparable.
    for mode in ("dynastar", "ssmr_star"):
        small = rows[("timeline", 2)][f"{mode}_tput"]
        large = rows[("timeline", 4)][f"{mode}_tput"]
        assert large > 1.4 * small, (mode, small, large)
    t_dyna = rows[("timeline", 4)]["dynastar_tput"]
    t_ssmr = rows[("timeline", 4)]["ssmr_star_tput"]
    assert 0.7 < t_dyna / t_ssmr < 1.4, (t_dyna, t_ssmr)

    # Mix workload: still scales, and DynaStar stays in S-SMR*'s league.
    for mode in ("dynastar", "ssmr_star"):
        assert rows[("mix", 4)][f"{mode}_tput"] > rows[("mix", 2)][f"{mode}_tput"]
    m_dyna = rows[("mix", 4)]["dynastar_tput"]
    m_ssmr = rows[("mix", 4)]["ssmr_star_tput"]
    assert m_dyna > 0.6 * m_ssmr, (m_dyna, m_ssmr)

    # DynaStar > S-SMR* > DS-SMR on the mix.
    naive = figures.fig4_social_throughput(
        partition_counts=(4,), mixes=("mix",), n_users=800, duration=20.0,
        clients_per_partition=5, seed=1, modes=("dssmr",),
    )["rows"][0]
    emit(f"DS-SMR, mix / 4 partitions: {naive['dssmr_tput']:.1f} cmds/s")
    assert m_dyna > m_ssmr > naive["dssmr_tput"] > 0, (m_dyna, m_ssmr, naive)

    # Latency is sane and reported for every cell.
    for row in result["rows"]:
        for key in ("dynastar_lat_mean_ms", "ssmr_star_lat_mean_ms"):
            assert row[key] > 0
        assert row["dynastar_lat_p95_ms"] >= row["dynastar_lat_mean_ms"] * 0.5
