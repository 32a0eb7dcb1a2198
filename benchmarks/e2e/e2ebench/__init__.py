"""End-to-end benchmark of the repro package (see ../README.md).

``stats`` and ``tracing`` are NumPy-free so the orchestrating parent process
never loads BLAS; ``workloads`` and ``probes`` import NumPy and ``repro`` and
are only imported inside a workload's child process (or the self-tests).
"""
