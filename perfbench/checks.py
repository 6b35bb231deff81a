"""Output checks the benchmark runs on every result; any failure fails the run.

Ground truths of the polynomial tasks are recomputed with networkx when it
is importable. NP witnesses are checked here directly: a Hamiltonian tour
must visit every node once over existing edges and close, and a max-cut
partition must cut exactly the stored number of edges.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


class CheckFailed(Exception):
    """An output of the program is wrong or differs from a repeat."""


def networkx():
    """networkx, imported on first use so that it stays out of the measured
    memory; None where it is not importable (the cross-check is skipped)."""
    try:
        import networkx
    except ImportError:
        return None
    return networkx


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _tour_ok(n: int, edges: set[tuple[int, int]], witness: list[int]) -> bool:
    tour = witness[:-1] if len(witness) > 1 and witness[0] == witness[-1] else witness
    if n < 3 or sorted(tour) != list(range(n)):
        return False
    return all(tuple(sorted((tour[i], tour[(i + 1) % n]))) in edges for i in range(n))


def check_record(rec: dict[str, Any]) -> None:
    """Check one corpus JSONL record's ground truth."""
    task, n, gt, params = rec["task"], rec["n"], rec["ground_truth"], rec["params"]
    edges = {tuple(sorted(e)) for e in rec["edges"]}
    where = rec["id"]
    if task == "hamiltonian":
        if gt["exists"]:
            require(_tour_ok(n, edges, gt["witness"]), f"{where}: witness is not a tour")
        else:
            require(gt["witness"] is None, f"{where}: witness on a 'no' answer")
        return
    if task == "max_cut":
        side = set(gt["partition"])
        cut = sum(1 for u, v in edges if (u in side) != (v in side))
        require(cut == gt["size"], f"{where}: partition cuts {cut}, stored {gt['size']}")
        return
    if task == "bfs_order":
        require(gt == {"start": params["start"]}, f"{where}: bad bfs ground truth")
        return
    nx = networkx()
    if nx is None:
        return
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    if task == "connectivity":
        want: Any = nx.has_path(g, params["u"], params["v"])
    elif task == "cycle":
        want = not nx.is_forest(g)
    elif task == "diameter":
        want = nx.diameter(g)
    elif task == "shortest_path":
        want = {"src": params["u"], "dst": params["v"],
                "dist": nx.shortest_path_length(g, params["u"], params["v"])}
    elif task == "triangle":
        want = sum(nx.triangles(g).values()) // 3
    else:
        raise CheckFailed(f"{where}: unknown task {task!r}")
    require(gt == want, f"{where}: ground truth {gt!r}, networkx says {want!r}")


def check_corpus(records: Iterable[dict[str, Any]]) -> int:
    count = 0
    for rec in records:
        check_record(rec)
        count += 1
    require(count > 0, "empty corpus")
    return count


def eval_fingerprint(records: list[dict[str, Any]], expected: int,
                     accuracy: float = 0.8) -> list[tuple]:
    """Check one `run` output and return what must repeat on a cache hit.

    No record failed, every score is 0 or 1, and accuracy is within four
    binomial standard deviations of the mock's configured accuracy.
    """
    require(len(records) == expected, f"{len(records)} records, expected {expected}")
    failed = [r for r in records if r.get("error")]
    require(not failed, f"{len(failed)} records failed, first: {failed[:1]}")
    require(all(r["score"] in (0, 1) for r in records), "score outside {0, 1}")
    acc = sum(r["score"] for r in records) / len(records)
    sd = math.sqrt(accuracy * (1 - accuracy) / len(records))
    require(abs(acc - accuracy) <= 4 * sd,
            f"accuracy {acc:.4f} is more than 4 sd ({sd:.4f}) from {accuracy}")
    return [(r["query_id"], r["prompt_scheme"], r["serialization"],
             repr(r["extracted"]), r["score"]) for r in records]
