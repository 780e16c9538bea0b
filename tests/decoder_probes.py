"""Recorders of the decoder's work: the one place the tests name its loop.

The decoder's contracts are checked through its public entry points:
equality with `decoder_reference.reference_decode`, independence from the
window, the chunking and the batch, and the pins.  A few performance
properties have no contract yet: how many message-passing runs a call
makes, which syndromes each check block streams, how wide each window is
and how many columns each pass sums.  These recorders count that work by
wrapping the loop's private parts through a pytest monkeypatch, so a change
to those parts is mended here and not in every test that counts.  It is a
helper module, not a test module, so pytest does not collect it.
"""

from eaqc import decoder


def flood_runs(monkeypatch):
    """The [sx | sz] rows of each message-passing run from now on."""
    flood, runs = decoder._flood, []

    def counted(g, rows, cfg):
        runs.append(rows)
        return flood(g, rows, cfg)

    monkeypatch.setattr(decoder, "_flood", counted)
    return runs


def recorded_streams(monkeypatch):
    """Each check block's stream that message passing makes from now on;
    a stream's s holds its distinct syndromes, one column each."""
    streams = []

    class Recorded(decoder._Stream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    monkeypatch.setattr(decoder, "_Stream", Recorded)
    return streams


def window_widths(monkeypatch):
    """The column count of each window message passing makes from now on:
    its first, and each it shrinks to."""
    widths = []

    class Recorded(decoder._RuleScratch):
        def __init__(self, sign, dmax):
            widths.append(sign.shape[1])
            super().__init__(sign, dmax)

    monkeypatch.setattr(decoder, "_RuleScratch", Recorded)
    return widths


def column_passes(monkeypatch):
    """The window width of each pass's column sums from now on, one entry
    per loop pass; a pass whose messages are not C-contiguous, trials on
    the last axis, fails the assertion here."""
    column_sums, widths = decoder._column_sums, []

    def counted(mu, slots):
        assert mu.flags.c_contiguous
        widths.append(mu.shape[1])
        return column_sums(mu, slots)

    monkeypatch.setattr(decoder, "_column_sums", counted)
    return widths
