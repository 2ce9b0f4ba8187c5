"""Build the join graph and find the cheapest path between two tables.

Tables are nodes.  Declared foreign keys become solid intra-database
edges; validated fuzzy column matches become dashed cross-database edges.
Every edge is weighted by how much of the data survives the join:

    weight = -log2(overlap_s)      (clamped at s + 1e-6, capped at 1)

so path costs add while survival probabilities multiply.  The cheapest
path between two tables is then a plain Dijkstra run.  2^(-total weight)
is shown as the share of rows kept end to end, but it is biased low: each
s is a Jaccard overlap, never above the containment a join keeps rows by
(ROADMAP item 8).

Run 01_generate_catalog.py first.
"""

from pathlib import Path

from joinscout import TableRef, discover, export_dot, graph_to_json, load_catalog, shortest_path

HERE = Path(__file__).parent
CATALOG = HERE / "output" / "catalog" / "manifest.json"


def main() -> None:
    _, _, graph = discover(load_catalog(CATALOG))

    print(f"graph: {len(graph.nodes)} tables, {len(graph.edges)} edges\n")
    for edge in graph.edges:
        cols = ", ".join(f"{l}={r}" for l, r in edge.join_columns)
        print(
            f"  {edge.kind.value:<5} {str(edge.left):<28} -- {str(edge.right):<36}"
            f" on {cols:<28} s={edge.overlap_s:.3f} w={edge.weight:.3f}"
        )

    source = TableRef("hospital_db", "Doctors")
    target = TableRef("public_info_db", "Hospital_Survey")
    path = shortest_path(graph, source, target)
    print(f"\ncheapest path {source} -> {target}:")
    for i, edge in enumerate(path.edges):
        l, r = path.tables[i], path.tables[i + 1]
        print(f"  {l} -> {r}  [{edge.kind.value}]  s={edge.overlap_s:.3f}")
    print(
        f"total weight {path.total_weight:.4f}"
        f" -> about {path.retained_percentage:.0%} of rows should survive"
    )

    # Both serializations round-trip; the DOT file renders with
    #   dot -Tpng output/join_graph.dot -o join_graph.png
    (HERE / "output" / "join_graph.json").write_text(graph_to_json(graph))
    (HERE / "output" / "join_graph.dot").write_text(export_dot(graph))
    print("\nwrote output/join_graph.json and output/join_graph.dot")


if __name__ == "__main__":
    main()
