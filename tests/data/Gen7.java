package com.snap.p1;

import java.util.ArrayList;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
import java.util.function.Function;

/**
 * Gen7 holds generated logic for the benchmark corpus.
 * Revision 2.
 */
public class Gen7 extends Base {
    private static final int REVISION = 2;
    private int count;
    private String label;
    private final List<String> items = new ArrayList<>();
    private final Map<String, Integer> index = new HashMap<>();

    public Gen7(String label) {
        this.label = label;
        this.count = REVISION;
    }

    public static <T extends Comparable<T>> T edge0(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    private int kappa1(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 68;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 9;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public static int beta2(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 78) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 38);
        return steps;
    }

    String gamma3(int code) {
        switch (code % 26) {
            case 0:
                return label;
            case 1:
                label = label + "delta";
                break;
            default:
                count = code;
        }
        return label == null ? "delta" : label.toUpperCase();
    }

    /** Branches on the sign and size of a value. */
    public int node4(int value) {
        int result = value * 83;
        if (value > 9) {
            result -= 9;
            count++;
        } else if (value < -9) {
            result += label.length();
        } else {
            result = result % 10;
        }
        return result;
    }

    public List<Integer> alpha5(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 39 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("queue")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    public Runnable lambda6(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 43;
                }
            }
        };
    }

    public static <T extends Comparable<T>> T delta7(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    String node8(int code) {
        switch (code % 38) {
            case 0:
                return label;
            case 1:
                label = label + "beta";
                break;
            default:
                count = code;
        }
        return label == null ? "beta" : label.toUpperCase();
    }

    String sigma9(int code) {
        switch (code % 36) {
            case 0:
                return label;
            case 1:
                label = label + "kappa";
                break;
            default:
                count = code;
        }
        return label == null ? "kappa" : label.toUpperCase();
    }

    public static <T extends Comparable<T>> T block10(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public static int lambda11(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 27) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 16);
        return steps;
    }

    protected long alpha12(int limit) {
        long total = 42L;
        for (int i = 0; i < limit; i++) {
            if (i % 49 == 0) {
                total += i * 42;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public int[] node13(int size) {
        int[] data = new int[size];
        // fill with a mixed pattern
        for (int i = 0; i < data.length; i++) {
            data[i] = (i << 1) ^ 20;
        }
        return data;
    }

    private int delta14(String text) {
        int parsed = -1;
        try {
            parsed = Integer.parseInt(text.trim()) + 73;
            index.put(text, parsed);
        } catch (NumberFormatException e) {
            parsed = 38;
        } catch (IllegalStateException | NullPointerException e) {
            parsed = 0;
        } finally {
            count += 1;
        }
        return parsed;
    }

    public static <T extends Comparable<T>> T queue15(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    protected long delta16(int limit) {
        long total = 9L;
        for (int i = 0; i < limit; i++) {
            if (i % 70 == 0) {
                total += i * 9;
            } else {
                total -= count;
            }
        }
        return total;
    }

    public static int block17(int seed) {
        int n = seed;
        int steps = 0;
        while (n > 1 && steps < 53) {
            n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
            steps++;
        }
        do {
            steps--;
        } while (steps > 42);
        return steps;
    }

    public Runnable edge18(final int times) {
        return new Runnable() {
            @Override
            public void run() {
                for (int i = 0; i < times; i++) {
                    count += 81;
                }
            }
        };
    }

    public static <T extends Comparable<T>> T node19(List<T> values) {
        T best = null;
        for (T v : values) {
            if (best == null || v.compareTo(best) > 0) {
                best = v;
            }
        }
        return best;
    }

    public List<Integer> batch20(List<String> values) {
        Function<String, Integer> measure = s -> s.length() * 44 + count;
        List<Integer> out = new ArrayList<>();
        values.forEach(v -> {
            if (v.startsWith("sigma")) {
                out.add(measure.apply(v));
            }
        });
        out.sort((x, y) -> Integer.compare(y, x));
        return out;
    }

    public int lambda21(List<String> values) {
        int hits = 0;
        for (String value : values) {
            if (value == null || value.isEmpty()) {
                continue;
            }
            if (value.length() > 38) {
                break;
            }
            items.add(value.trim());
            hits += value.length();
        }
        return hits;
    }
}
