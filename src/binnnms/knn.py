"""Empty: exact kNN is one `binvec.hamming_topk` call. The module stays only
because `perfbench/tracing.py` reads `sys.modules["binnnms.knn"]`; it goes
with that hook (ROADMAP item 1)."""
