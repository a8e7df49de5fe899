"""How raw social-media text becomes the comparison form used for matching.

Run: python demos/01_normalization.py
"""

from quotematch.textnorm import normalize_arabic, strip_quote_prefix, shingle

samples = [
    "مُحَمَّدٌ",                       # diacritics vanish
    "إلى المدرسة",                     # alef/ta-marbuta/ya folding
    "RT @user انظر https://t.co/abc #حديث_اليوم",  # mentions/URLs drop, hashtag body kept
    "قالَ: «العلمُ نورٌ»!! 😀",        # punctuation and emoji become spaces
]

print("=== normalization ===")
for raw in samples:
    print(f"  {raw!r:60} -> {normalize_arabic(raw)!r}")

# Interchangeable quote introductions carry no content, so they are stripped
# before similarity is computed (once, longest pattern first).
print("\n=== quote-introduction stripping ===")
post = "قال رسول الله صلى الله عليه وسلم من حسن اسلام المرء تركه ما لا يعنيه"
normalized = normalize_arabic(post)
print(f"  normalized: {normalized}")
print(f"  stripped:   {strip_quote_prefix(normalized)}")

# Matching compares token sets: word order and repeats do not count.
print("\n=== token set ===")
body = strip_quote_prefix(normalized)
tokens = shingle(body)
print(f"  {len(tokens)} distinct tokens from {len(body.split())} tokens")
print(f"  {sorted(tokens)[:4]} ...")

# Normalization is idempotent: a normalized string is its own normal form.
assert normalize_arabic(normalized) == normalized
print("\nidempotence holds on the sample.")
