"""The earlier printer, kept as the reference for the one-pass printer.

``scalar_text`` is the old ``LaurentPoly.__str__`` and ``element_text`` the
old ``format_element``: each term builds its power token and decimal
afresh, a negative coefficient is printed from its negated copy, and the
text grows by concatenation.  The package's printer must write the same
bytes.
"""

from hecke.laurent import ONE, _to_decimal


def _power_token(e: int) -> str:
    if e == 0:
        return ""
    if e % 2 == 0:
        h = e // 2
        return "q" if h == 1 else f"q^{_to_decimal(h)}"
    return "v" if e == 1 else f"v^{_to_decimal(e)}"


def scalar_text(p) -> str:
    if not p._terms:
        return "0"
    pieces = []
    for e, c in sorted(p._terms.items(), reverse=True):
        power = _power_token(e)
        mag = abs(c)
        if mag == 1 and power:
            body = power
        else:
            body = _to_decimal(mag)
            if power:
                body = f"{body}*{power}"
        pieces.append((c < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def element_text(el) -> str:
    if el.is_zero():
        return "0*T[]"
    pieces = []
    for w, c in el.items():
        t_part = "T[" + ",".join(str(i) for i in w.reduced_word()) + "]"
        if c.is_one():
            pieces.append((False, t_part))
            continue
        if c == -ONE:
            pieces.append((True, t_part))
            continue
        if c.num_terms() == 1:
            body = scalar_text(c)
            neg = body.startswith("-")
            pieces.append((neg, f"{body.lstrip('-')}*{t_part}"))
        elif c.leading_coeff() < 0:
            pieces.append((True, f"({scalar_text(-c)})*{t_part}"))
        else:
            pieces.append((False, f"({scalar_text(c)})*{t_part}"))
    neg0, body0 = pieces[0]
    out = ("-" if neg0 else "") + body0
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
