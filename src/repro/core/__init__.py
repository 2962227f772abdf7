"""Bandana itself: configuration, table specs and the end-to-end store.

``repro.core`` contains the paper's actual contribution, assembled from the
substrates in the sibling packages: the :class:`~repro.core.bandana.BandanaStore`
partitions every embedding table onto NVM blocks, splits the DRAM budget
across tables, tunes each table's prefetch-admission threshold with miniature
caches and then serves lookups while accounting for every NVM block read.
"""
