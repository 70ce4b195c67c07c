"""Command line entry point.

    graphrag schema-check --config pipeline.yaml
    graphrag index        --config pipeline.yaml [--force] [--index DIR]
    graphrag cluster      --config pipeline.yaml [--force] [--index DIR]
    graphrag retrieve     --config pipeline.yaml --query TEXT [--k N] [--ablate ...]
    graphrag eval         --config pipeline.yaml BENCHMARK [--ablate ...]

Shared flags may sit before or after the subcommand. ``--json`` switches the
output to a single machine-readable object; errors, including failed reads
and writes of files, go to stderr as one ``error:`` line with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import GraphRagError
from .ontology import schema_to_prompt, load_schema
from .pipeline import build_index, run_clustering, run_eval, run_retrieve
from .retrieval import RetrievalResponse


def _shared_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # subcommand copies default to SUPPRESS so they never mask a value parsed
    # at the top level
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help="pipeline YAML config file")
    parser.add_argument(
        "--json",
        action="store_const",
        const=True,
        default=argparse.SUPPRESS if suppress else False,
        help="emit one JSON object instead of text",
    )
    parser.add_argument(
        "--force",
        action="store_const",
        const=True,
        default=argparse.SUPPRESS if suppress else False,
        help="overwrite existing index/cluster artifacts",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphrag",
        description="Ontology-guided graph retrieval pipeline.",
    )
    _shared_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def _sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _shared_flags(p, suppress=True)
        return p

    _sub("schema-check", "validate the ontology schema and print its prompt")

    p_index = _sub("index", "extract the corpus into an index directory")
    p_index.add_argument("--index", default=None, help="override the index directory")

    p_cluster = _sub("cluster", "detect communities and write their reports")
    p_cluster.add_argument("--index", default=None, help="override the index directory")

    p_retrieve = _sub("retrieve", "answer one query against the index")
    p_retrieve.add_argument("--query", required=True, help="query text")
    p_retrieve.add_argument("--index", default=None, help="override the index directory")
    p_retrieve.add_argument("--k", type=int, default=None, help="results to return")
    p_retrieve.add_argument(
        "--ablate", action="append", default=[], choices=["graph", "community"],
        help="disable a retrieval channel (repeatable)",
    )

    p_eval = _sub("eval", "score a benchmark file against the index")
    p_eval.add_argument("benchmark", help="benchmark queries (JSON or JSONL)")
    p_eval.add_argument("--index", default=None, help="override the index directory")
    p_eval.add_argument(
        "--ablate", action="append", default=[], choices=["graph", "community"],
        help="disable a retrieval channel (repeatable)",
    )
    return parser


def _response_payload(response: RetrievalResponse) -> dict:
    analysis = response.analysis
    return {
        "query": analysis.query,
        "beta": analysis.beta,
        "entity_density": analysis.entity_density,
        "abstraction_score": analysis.abstraction_score,
        "linked_entities": [
            {"node_id": link.node_id, "span": list(link.span), "confidence": link.confidence}
            for link in analysis.linked_entities
        ],
        "results": [
            {
                "rank": rank,
                "chunk_id": r.chunk_id,
                "document_id": r.document_id,
                "text": r.text,
                "scores": {
                    "graph": r.s_graph,
                    "community": r.s_comm,
                    "vector": r.s_vector,
                    "fused": r.fused,
                    "rerank": r.rerank_score,
                },
                "provenance": r.provenance,
            }
            for rank, r in enumerate(response.results, start=1)
        ],
        "diagnostics": list(response.diagnostics),
    }


def _print_response(response: RetrievalResponse) -> None:
    analysis = response.analysis
    print(f"query: {analysis.query}")
    print(
        f"beta={analysis.beta:.4f} density={analysis.entity_density:.4f} "
        f"abstraction={analysis.abstraction_score:.4f} "
        f"entities={len(analysis.linked_entities)}"
    )
    for rank, r in enumerate(response.results, start=1):
        excerpt = " ".join(r.text.split())
        if len(excerpt) > 160:
            excerpt = excerpt[:157] + "..."
        print(
            f"{rank}. {r.chunk_id}  rerank={r.rerank_score:.4f} fused={r.fused:.4f} "
            f"(graph={r.s_graph:.4f} comm={r.s_comm:.4f} vec={r.s_vector:.4f})"
        )
        print(f"   {excerpt}")
    for note in response.diagnostics:
        print(f"note: {note}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    try:
        if not args.config:
            raise GraphRagError("--config is required")
        cfg = load_config(args.config)
        index_dir = getattr(args, "index", None)
        index_path = Path(index_dir) if index_dir else None

        if args.command == "schema-check":
            schema = load_schema(cfg.schema_path.read_bytes())
            prompt = schema_to_prompt(schema)
            if args.json:
                print(json.dumps(
                    {
                        "version": schema.version,
                        "entity_types": list(schema.entity_types),
                        "relation_types": list(schema.relation_types),
                        "prompt": prompt,
                    },
                    indent=2, sort_keys=True, ensure_ascii=False,
                ))
            else:
                print(
                    f"schema OK: version {schema.version!r}, "
                    f"{len(schema.entity_types)} entity types, "
                    f"{len(schema.relation_types)} relations"
                )
                print(prompt)
        elif args.command == "index":
            manifest = build_index(cfg, force=args.force, index_dir=index_path)
            if args.json:
                print(json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False))
            else:
                counts = manifest["counts"]
                print(
                    f"indexed {counts['documents']} documents: {counts['chunks']} chunks, "
                    f"{counts['nodes']} nodes, {counts['edges']} edges"
                )
        elif args.command == "cluster":
            summary = run_clustering(cfg, force=args.force, index_dir=index_path)
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False))
            else:
                dims = ", ".join(f"{k}={v}" for k, v in sorted(summary["by_dimension"].items()))
                print(f"wrote {summary['communities']} communities ({dims})")
        elif args.command == "retrieve":
            response = run_retrieve(
                cfg, args.query, k=args.k, index_dir=index_path,
                extra_ablate=tuple(args.ablate),
            )
            if args.json:
                print(json.dumps(_response_payload(response), indent=2, sort_keys=True, ensure_ascii=False))
            else:
                _print_response(response)
        elif args.command == "eval":
            report = run_eval(
                cfg, args.benchmark, index_dir=index_path, extra_ablate=tuple(args.ablate)
            )
            if args.json:
                print(json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=False))
            else:
                print(report.render_table())
                for note in report.diagnostics:
                    print(f"note: {note}", file=sys.stderr)
    except (GraphRagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
