"""What the checks in ci/ share: a call's time, the sha256 pins and the
terms they are taken over, and the process's peak resident set."""
import hashlib, json, resource, time


def timed(f, *args):
    """f(*args) and the seconds it took."""
    start = time.perf_counter()
    value = f(*args)
    return value, time.perf_counter() - start


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def json_sha256(doc):
    """The sha256 of doc's JSON text, keys sorted (as element_to_json's
    documents are pinned; the lists of terms hold no dict)."""
    return sha256(json.dumps(doc, sort_keys=True))


def terms(el):
    """el's terms as the pins read them, key order included."""
    return [[list(w), c.to_pairs()] for w, c in el._terms.items()]


def peak_kib():
    """The process's peak resident set, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
