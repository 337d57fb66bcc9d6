"""
A census of hypercube Cayley graphs
===================================

Cayley graphs on the group of n-bit strings under XOR are determined, up to
isomorphism, by their connection set up to invertible linear maps of the
vector space (for n up to 5). Enumerating one canonical representative per
equivalence class and testing each graph gives a complete answer to "which
of these graphs carry a universally completable spectral framework?".
"""

from collections import Counter

from eigenframe import enumerate_orbits, run_survey
from eigenframe.survey import report_csv, survey_one

# canonical connection sets for n = 3: nine classes, six of full rank
reps = enumerate_orbits(3, spanning_only=False)
print("n=3 classes:", len(reps))
for r in reps:
    print("  ", r, " spans" if r in enumerate_orbits(3) else "")

# census for n up to 4: every connected graph in sight is completable
# except two classes at n = 4
for n in range(1, 5):
    report = run_survey(n)
    s = report.summary()
    print(f"n={n}: {s['connected']} connected, {s['uc']} completable")

report = run_survey(4)
print("\nthe two exceptional classes at n=4:")
for rec in report.records:
    if not rec.uc:
        print("  connection set", rec.connection_set,
              " tau", rec.tau, " witness dim", rec.x_dim)

# eigenvalues come free from character sums, so records carry exact data
rec = survey_one(4, (1, 2, 4, 8))
print("\nhypercube Q4:", "tau =", rec.tau, " multiplicity =", rec.tau_multiplicity,
      " completable =", rec.uc)

# witness dimensions across the n=4 census
dims = Counter(rec.x_dim for rec in report.records)
print("witness dimension histogram:", dict(sorted(dims.items())))

# CSV and JSON reports are deterministic; here are the first lines
print("\n" + "\n".join(report_csv(run_survey(2)).splitlines()[:4]))

# the n=5 census (1326 connected classes, 1293 completable) is run_survey(5):
# about 72 s of CPU, almost all of it the serial orbit enumeration. Workers
# share only the verdicts (about 1 s), so run_survey(5, workers=8) barely
# helps
