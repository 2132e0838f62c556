import sys
sys.path.insert(0, ".")
from jobs.common import get_spark, print_table
from jobs import evidence_scaling, table5_adc_vs_valid, fig14_grecall

spark = get_spark("experiments-3")
out = fig14_grecall.run(spark, n=300, seed=0, noise_rate=0.01)
print_table("FIG 14 (rate=0.01)", out); out.to_csv("results/fig14b.csv", index=False)
out = table5_adc_vs_valid.run(spark, n=300, seed=0)
print_table("TABLE 5 (fixed)", out); out.to_csv("results/table5.csv", index=False)

out = evidence_scaling.run(spark, n=3000, seed=0)
print_table("EVIDENCE SCALING (tax)", out); out.to_csv("results/evidence_scaling.csv", index=False)
spark.stop()
print("DONE-PART-3")
