"""Programmatic ablation experiments (DESIGN.md §5).

Each function runs one ablation and returns row dicts, so the studies
are usable from scripts and notebooks as well as from the tests that
check them (`tests/experiments/test_ablations.py`).
"""

from repro.calibration import Calibration
from repro.testbed import Testbed
from repro.workloads.registry import WORKLOADS


def noious_study(matrix, workloads=tuple(WORKLOADS)):
    """The NoIOUs bit: IOU caching allowed vs inhibited (= pure copy).

    Quantifies what the single header bit of §2.4 is worth per
    workload.
    """
    rows = []
    for name in workloads:
        cached = matrix.iou(name)
        inhibited = matrix.copy(name)
        rows.append(
            {
                "workload": name,
                "cached_transfer_s": cached.transfer_s,
                "inhibited_transfer_s": inhibited.transfer_s,
                "transfer_ratio": inhibited.transfer_s / cached.transfer_s,
                "cached_total_s": cached.transfer_plus_exec_s,
                "inhibited_total_s": inhibited.transfer_plus_exec_s,
            }
        )
    return rows


def fragment_size_study(
    sizes=(288, 576, 1152, 2304, 4608), workload="pm-start", seed=1987
):
    """NetMsgServer fragment size vs bulk-copy transfer time."""
    rows = []
    for size in sizes:
        calibration = Calibration(fragment_data_bytes=size)
        result = Testbed(seed=seed, calibration=calibration).migrate(
            workload, strategy="pure-copy", run_remote=False
        )
        rows.append(
            {
                "fragment_bytes": size,
                "copy_transfer_s": result.transfer_s,
                "bytes_on_wire": result.bytes_total,
                "msg_handling_s": result.message_handling_s,
            }
        )
    return rows


def rs_carve_study(
    carve_ms_values=(0.0, 1.0, 3.0, 6.0),
    lisp="lisp-t",
    pasmac="pm-mid",
    seed=1987,
):
    """The RS carve cost that produces Table 4-5's Lisp anomaly."""
    rows = []
    for carve_ms in carve_ms_values:
        calibration = Calibration(rs_carve_per_owed_page_s=carve_ms / 1000)
        bed = Testbed(seed=seed, calibration=calibration)
        lisp_result = bed.migrate(lisp, strategy="resident-set", run_remote=False)
        pasmac_result = bed.migrate(
            pasmac, strategy="resident-set", run_remote=False
        )
        lisp_per_page = 1000 * lisp_result.transfer_s / (
            WORKLOADS[lisp].resident_pages
        )
        pasmac_per_page = 1000 * pasmac_result.transfer_s / (
            WORKLOADS[pasmac].resident_pages
        )
        rows.append(
            {
                "carve_ms_per_owed_page": carve_ms,
                "lisp_ms_per_rs_page": lisp_per_page,
                "pasmac_ms_per_rs_page": pasmac_per_page,
                "anomaly_ratio": lisp_per_page / pasmac_per_page,
            }
        )
    return rows


def prefetch_depth_study(matrix, prefetches=(1, 3, 7, 15)):
    """Hit ratios per prefetch depth for the two locality families."""
    from statistics import mean

    pasmac = ("pm-start", "pm-mid", "pm-end")
    lisps = ("lisp-t", "lisp-del")
    rows = []
    for prefetch in prefetches:
        rows.append(
            {
                "prefetch": prefetch,
                "pasmac_hit_ratio": mean(
                    matrix.iou(name, prefetch).prefetch_hit_ratio
                    for name in pasmac
                ),
                "lisp_hit_ratio": mean(
                    matrix.iou(name, prefetch).prefetch_hit_ratio
                    for name in lisps
                ),
            }
        )
    return rows


def ws_window_study(
    windows_s=(0.5, 2.0, 10.0, 60.0), workload="pm-mid", seed=1987
):
    """Working-set window τ vs pages shipped and end-to-end time.

    Small τ under-ships (degenerates to pure-IOU); huge τ over-ships
    (degenerates toward pure-copy of all ever-referenced pages).
    """
    from repro.migration.strategy import WorkingSet

    bed = Testbed(seed=seed)
    rows = []
    for window in windows_s:
        result = bed.migrate(workload, strategy=WorkingSet(window_s=window))
        rows.append(
            {
                "window_s": window,
                "pages_shipped": result.pages_bulk,
                "transfer_s": result.transfer_s,
                "transfer_plus_exec_s": result.transfer_plus_exec_s,
            }
        )
    return rows
