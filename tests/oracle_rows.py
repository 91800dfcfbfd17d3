"""The one flattening of the oracle's Z-cycle entries that tests read."""


def z_cycle_rows(entries):
    """(checkpoint, chain) for each chain of each (checkpoint, chains,
    truncated) entry of ``find_z_cycles`` or ``OracleReport.z_cycles``, in
    order: the rows that ``run_report`` writes as ``z_cycles``."""
    return [(rec, names) for rec, chains, _ in entries for names in chains]
