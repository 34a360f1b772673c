"""Workbench for mixed-choice multiparty session calculi."""

__all__ = ["syntax", "lts", "semantics", "ltypes", "typecheck", "encode", "lcmv", "patterns"]
